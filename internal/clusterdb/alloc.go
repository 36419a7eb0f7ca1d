package clusterdb

import "strconv"

// The private network NextFreeIP allocates from, as host-order integers:
// addresses are handed out from 10.255.255.254 downward and the space is
// exhausted below 10.0.0.0.
const (
	ipTop    uint32 = 10<<24 | 255<<16 | 255<<8 | 254
	ipBottom uint32 = 10 << 24
)

// appendIPv4 appends the dotted-quad rendering of a host-order address.
func appendIPv4(b []byte, a uint32) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	for shift := 16; shift >= 0; shift -= 8 {
		b = append(b, '.')
		b = strconv.AppendUint(b, uint64(a>>shift&0xff), 10)
	}
	return b
}

// allocCursor is the nodes table's allocation state: the three answers a
// discovery would otherwise recompute by scanning the table (max(id)),
// probing down through every allocated address, and reading a whole cabinet
// to find one free rank. It is guarded by Database.mu exactly like the
// indexes.
//
// Invariant, for the table's rows as they stand:
//
//   - maxID is the largest non-NULL id (hasID false when there is none);
//   - every address in (ipNext, ipTop] is a key of the nodes_ip index, and
//     ipNext itself is not (or ipNext < ipBottom: the space is exhausted);
//   - rankHeld is the (membership, rack, rank) of every row where none of the
//     three is NULL and the rank is not negative, and for each (membership,
//     rack) every rank in [0, rankNext) is held and rankNext itself is not.
//
// An INSERT can only add ids, addresses and ranks, so it advances the cursor
// in amortized O(1): ipNext never revisits an address and rankNext never a
// rank. Anything that can remove an id, free an address or free or move a
// rank — UPDATE of id, ip, membership, rack or rank, DELETE, a bulk load —
// rebuilds the cursor from the rows once, so a hole opened above ipNext or
// below rankNext is found again and reused exactly as the scans did.
type allocCursor struct {
	idCol, ipCol, memCol, rackCol, rankCol int
	ipIdx                                  *index

	maxID    int64
	hasID    bool
	ipNext   uint32
	rankHeld map[[3]int64]bool
	rankNext map[[2]int64]int64
}

// attachAlloc gives the nodes table its cursor, provided it has the columns
// the cursor summarizes and the single-column ip index it verifies against; a
// foreign table that merely shares the name stays plain and its callers scan.
func (t *table) attachAlloc() {
	if t.name != "nodes" {
		return
	}
	var at [5]int
	for i, col := range [...]Column{{"id", TypeInt}, {"ip", TypeText}, {"membership", TypeInt}, {"rack", TypeInt}, {"rank", TypeInt}} {
		if at[i] = t.colIndex(col.Name); at[i] < 0 || t.cols[at[i]].Type != col.Type {
			return
		}
	}
	c := &allocCursor{idCol: at[0], ipCol: at[1], memCol: at[2], rackCol: at[3], rankCol: at[4]}
	for _, ix := range t.indexes {
		if len(ix.colIdx) == 1 && ix.colIdx[0] == c.ipCol {
			c.ipIdx = ix
			c.rebuild(nil)
			t.alloc = c
			return
		}
	}
}

// taken probes the ip index for one address. Both buffers stay on the stack:
// the probe runs once per discovery and once per address NextFreeIP skips.
func (c *allocCursor) taken(a uint32) bool {
	var ip [len("255.255.255.255")]byte
	var buf [2 + len(ip)]byte
	key := appendKeyPart(buf[:0], TextValue(string(appendIPv4(ip[:0], a))))
	return len(c.ipIdx.buckets[string(key)]) > 0
}

// noteInsert advances the cursor past a row that was just indexed.
func (c *allocCursor) noteInsert(row []Value) {
	if id := row[c.idCol]; !id.Null && (!c.hasID || id.Int > c.maxID) {
		c.maxID, c.hasID = id.Int, true
	}
	for c.ipNext >= ipBottom && c.taken(c.ipNext) {
		c.ipNext--
	}
	m, k, r := row[c.memCol], row[c.rackCol], row[c.rankCol]
	if m.Null || k.Null || r.Null || r.Int < 0 {
		return // the rows NextRank's SELECT and count-up loop never saw
	}
	c.rankHeld[[3]int64{m.Int, k.Int, r.Int}] = true
	cabinet := [2]int64{m.Int, k.Int}
	next := c.rankNext[cabinet]
	for c.rankHeld[[3]int64{m.Int, k.Int, next}] {
		next++
	}
	c.rankNext[cabinet] = next
}

// moved reports whether an UPDATE changed a cell the cursor summarizes.
func (c *allocCursor) moved(oldRow, newRow []Value) bool {
	return oldRow[c.idCol] != newRow[c.idCol] || oldRow[c.ipCol] != newRow[c.ipCol] || oldRow[c.memCol] != newRow[c.memCol] ||
		oldRow[c.rackCol] != newRow[c.rackCol] || oldRow[c.rankCol] != newRow[c.rankCol]
}

// rebuild recomputes the cursor from the rows and the (already current) ip
// index: O(rows) once, after a mutation that may have opened a hole.
func (c *allocCursor) rebuild(rows [][]Value) {
	c.maxID, c.hasID, c.ipNext = 0, false, ipTop
	c.rankHeld, c.rankNext = map[[3]int64]bool{}, map[[2]int64]int64{}
	for _, row := range rows {
		c.noteInsert(row)
	}
}

// cursorLocked returns the nodes table's cursor, or nil when index routing
// is off or the table carries none (the callers' callers then scan). Callers
// hold d.mu.
func (d *Database) cursorLocked() *allocCursor {
	if !d.indexRouting.Load() {
		return nil
	}
	if t, ok := d.tables["nodes"]; ok {
		return t.alloc
	}
	return nil
}

// nextNodeID returns max(id)+1 from the cursor; ok is false without one.
func (d *Database) nextNodeID() (id int, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := d.cursorLocked()
	if c == nil {
		return 0, false
	}
	if !c.hasID {
		return 1, true
	}
	return int(c.maxID) + 1, true
}

// nextRank answers NextRank from the cursor: the lowest rank no row of the
// (membership, rack) holds. ok is false without a cursor.
func (d *Database) nextRank(membership, rack int) (rank int, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := d.cursorLocked()
	if c == nil {
		return 0, false
	}
	return int(c.rankNext[[2]int64{int64(membership), int64(rack)}]), true
}

// nextFreeIP answers NextFreeIP from the cursor: it starts at ipNext and
// still verifies every candidate against the nodes_ip index, so the answer
// is the one the full top-down probe would give. ip is empty when the space
// is exhausted; ok is false without a cursor.
func (d *Database) nextFreeIP() (ip string, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := d.cursorLocked()
	if c == nil {
		return "", false
	}
	a := c.ipNext
	for a >= ipBottom && c.taken(a) {
		a--
	}
	d.allocProbes.Add(uint64(c.ipNext-a) + 1)
	if a < ipBottom {
		return "", true
	}
	return string(appendIPv4(nil, a)), true
}
