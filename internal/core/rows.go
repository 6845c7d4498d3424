package core

import "unsafe"

// rows is the congestion tables' row store: row i is a fixed-length []T
// allocated by the first write to it, so a table's memory follows the rows
// traffic touches rather than its index space (DESIGN.md §3.10). An absent row reads
// as the shared zero row, which reads exactly as a freshly allocated row
// does, so only the allocation tells the two apart.
//
// A row is held by a pointer to its first element, so an absent row costs 8
// bytes (a slice of slices would spend 24) and reaching a row is one load.
type rows[T any] struct {
	first []*T // row i's first element; nil until row i is written
	zero  []T  // what an absent row reads as: shared, never written
}

// newRows returns a store of count rows of rowLen entries each. zero backs
// the zero row: a package-level array, shared by every table of its kind,
// of at least rowLen entries.
func newRows[T any](count, rowLen int, zero []T) rows[T] {
	return rows[T]{first: make([]*T, count), zero: zero[:rowLen:rowLen]}
}

// get returns row i for reading; an absent row is the zero row, and nothing
// is allocated. Only a row put has returned may be written.
func (s *rows[T]) get(i int) []T {
	if p := s.first[i]; p != nil {
		return unsafe.Slice(p, len(s.zero))
	}
	return s.zero
}

// put returns row i for writing, allocating it on the first call.
func (s *rows[T]) put(i int) []T {
	p := s.first[i]
	if p == nil {
		p = &make([]T, len(s.zero))[0]
		s.first[i] = p
	}
	return unsafe.Slice(p, len(s.zero))
}

// each calls fn on every written row, in index order.
func (s *rows[T]) each(fn func(row []T)) {
	for _, p := range s.first {
		if p != nil {
			fn(unsafe.Slice(p, len(s.zero)))
		}
	}
}
