package topology

import "fmt"

// The broadcast algorithms of the paper carve the mesh into rows,
// columns, planes and corner nodes. These helpers provide that
// vocabulary.

// Line returns the nodes obtained by fixing every coordinate of base
// except dimension d, which sweeps its full extent in increasing
// order. It is a "row" or "column" generalised to n dimensions.
func (m *Mesh) Line(base NodeID, d int) []NodeID {
	coord := m.Coord(base)
	out := make([]NodeID, m.dims[d])
	for v := 0; v < m.dims[d]; v++ {
		coord[d] = v
		out[v] = m.ID(coord...)
	}
	return out
}

// Plane returns all nodes whose coordinate along dimension d equals v,
// in increasing node-ID order. For a 3D mesh, Plane(2, z) is the z-th
// XY plane the AB algorithm treats as a 2D sub-mesh.
func (m *Mesh) Plane(d, v int) []NodeID {
	if v < 0 || v >= m.dims[d] {
		panic(fmt.Sprintf("topology: plane index %d out of range in dim %d", v, d))
	}
	out := make([]NodeID, 0, m.n/m.dims[d])
	for id := 0; id < m.n; id++ {
		if m.CoordAxis(NodeID(id), d) == v {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// CornerMask selects a corner: bit d set means coordinate d takes its
// maximum value, clear means zero.
type CornerMask uint

// Corner returns the corner node selected by mask.
func (m *Mesh) Corner(mask CornerMask) NodeID {
	coord := make([]int, len(m.dims))
	for d := range m.dims {
		if mask&(1<<uint(d)) != 0 {
			coord[d] = m.dims[d] - 1
		}
	}
	return m.ID(coord...)
}

// Corners returns all 2^NDims corner nodes, indexed by CornerMask.
func (m *Mesh) Corners() []NodeID {
	out := make([]NodeID, 1<<uint(len(m.dims)))
	for mask := range out {
		out[mask] = m.Corner(CornerMask(mask))
	}
	return out
}

// NearestCornerInPlane returns the corner of the (d0,d1) plane through
// node id closest to id (Manhattan distance within the plane), and the
// opposite corner of that plane. The AB algorithm's first step routes
// to exactly these two nodes.
func (m *Mesh) NearestCornerInPlane(id NodeID, d0, d1 int) (nearest, opposite NodeID) {
	coord := m.Coord(id)
	c0, c1 := coord[d0], coord[d1]
	lo0 := c0 < m.dims[d0]-c0 // closer to 0 along d0?
	lo1 := c1 < m.dims[d1]-c1

	near := append([]int(nil), coord...)
	opp := append([]int(nil), coord...)
	if lo0 {
		near[d0], opp[d0] = 0, m.dims[d0]-1
	} else {
		near[d0], opp[d0] = m.dims[d0]-1, 0
	}
	if lo1 {
		near[d1], opp[d1] = 0, m.dims[d1]-1
	} else {
		near[d1], opp[d1] = m.dims[d1]-1, 0
	}
	return m.ID(near...), m.ID(opp...)
}

// HalfSpace partitions the nodes of ids by coordinate d: nodes with
// coordinate < split go to lo, the rest to hi.
func (m *Mesh) HalfSpace(ids []NodeID, d, split int) (lo, hi []NodeID) {
	for _, id := range ids {
		if m.CoordAxis(id, d) < split {
			lo = append(lo, id)
		} else {
			hi = append(hi, id)
		}
	}
	return lo, hi
}
