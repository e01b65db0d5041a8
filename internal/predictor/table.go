package predictor

// table is the VPS table of the paper's Fig. 1, shared by every
// family: a row per index K holds the family's entry E plus the
// usefulness and last-touch stamps replacement reads. A new index
// arriving at a full table evicts the least useful row, the least
// recently touched among equals ("the entry with the smallest
// usefulness value will be evicted"). Stamps come from one tick per
// table, so they are unique and the victim never depends on map
// order. Reset rows return to a free list, so refilling a reset table
// allocates nothing.
type table[K comparable, E any] struct {
	rows      map[K]*row[E]
	free      []*row[E]
	capacity  int
	tick      uint64
	evictions uint64 // over the table's lifetime: reset keeps it
}

// row is one table row: the family's entry and its replacement state.
type row[E any] struct {
	e      E
	useful int
	touch  uint64
}

func newTable[K comparable, E any](capacity int) table[K, E] {
	return table[K, E]{rows: make(map[K]*row[E]), capacity: capacity}
}

// touch stamps r as the table's most recently used row.
func (t *table[K, E]) touch(r *row[E]) {
	t.tick++
	r.touch = t.tick
}

// insert adds a zeroed, unstamped row for k, evicting first if the
// table is full.
func (t *table[K, E]) insert(k K) *row[E] {
	if len(t.rows) >= t.capacity {
		var victim K
		var v *row[E]
		for vk, r := range t.rows {
			if v == nil || r.useful < v.useful || r.useful == v.useful && r.touch < v.touch {
				victim, v = vk, r
			}
		}
		delete(t.rows, victim)
		t.evictions++
		t.free = append(t.free, v)
	}
	var r *row[E]
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
		*r = row[E]{}
	} else {
		r = new(row[E])
	}
	t.rows[k] = r
	return r
}

// reset empties the table and restarts its tick; the eviction count
// carries on.
func (t *table[K, E]) reset() {
	for _, r := range t.rows {
		t.free = append(t.free, r)
	}
	clear(t.rows)
	t.tick = 0
}

// credit moves r's usefulness on a verified prediction: up when it was
// correct, down (not below zero) when it was wrong.
func (r *row[E]) credit(correct bool) {
	if correct {
		r.useful++
	} else if r.useful > 0 {
		r.useful--
	}
}
