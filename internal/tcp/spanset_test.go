package tcp

import "testing"

// FuzzSpanSetMatchesModel drives a spanSet — the scoreboard every SACK block
// comes from and the reassembly buffer behind it — with inserts, popFronts
// and resets read from the input, and checks it against a byte map over a
// small sequence space: after every operation the spans are exactly the
// maximal runs of covered bytes (so overlapping and touching spans coalesce
// and the list is sorted and disjoint), insert's index is the span holding
// the inserted range, and a set that has never held more than four spans
// since its reset still lives in its inline array.
func FuzzSpanSetMatchesModel(f *testing.F) {
	f.Add([]byte{1, 10, 5, 1, 30, 5, 1, 15, 15})                             // a gap filled: three spans merge into one
	f.Add([]byte{1, 0, 3, 1, 10, 3, 1, 20, 3, 1, 30, 3, 1, 40, 3, 1, 50, 3}) // six spans: past the inline array
	f.Add([]byte{1, 5, 5, 1, 11, 4, 0, 0, 0, 1, 2, 1, 7, 0, 0, 1, 1, 1})     // touching spans, popFront, reset
	f.Add([]byte{1, 200, 39, 1, 0, 255, 1, 100, 1})                          // the ends of the space
	f.Fuzz(func(t *testing.T, ops []byte) {
		const space = 300 // starts below 256 plus lengths below 40
		var (
			s       spanSet
			covered [space]bool
			peak    int
		)
		runs := func() []span {
			var out []span
			for i := 0; i < space; i++ {
				if covered[i] && (i == 0 || !covered[i-1]) {
					out = append(out, span{int64(i), int64(i)})
				}
				if covered[i] {
					out[len(out)-1].end = int64(i + 1)
				}
			}
			return out
		}
		for len(ops) >= 3 {
			op, a, b := ops[0]%8, int64(ops[1]), int64(ops[2]%40)
			ops = ops[3:]
			switch op {
			case 0: // popFront
				if len(s.spans) == 0 {
					continue
				}
				for i := s.spans[0].start; i < s.spans[0].end; i++ {
					covered[i] = false
				}
				s.popFront()
			case 7: // the documented full reset
				s, covered, peak = spanSet{}, [space]bool{}, 0
			default:
				start, end := a, a+b+1
				for i := start; i < end; i++ {
					covered[i] = true
				}
				i := s.insert(start, end)
				if i < 0 || i >= len(s.spans) || s.spans[i].start > start || s.spans[i].end < end {
					t.Fatalf("insert [%d, %d) returned %d, spans %v", start, end, i, s.spans)
				}
			}
			want := runs()
			if len(s.spans) != len(want) {
				t.Fatalf("spans %v, want %v", s.spans, want)
			}
			for i := range want {
				if s.spans[i] != want[i] {
					t.Fatalf("spans %v, want %v", s.spans, want)
				}
			}
			peak = max(peak, len(s.spans))
			if peak <= len(s.inline) && len(s.spans) > 0 && &s.spans[0] != &s.inline[0] {
				t.Fatalf("a set of at most %d spans left its inline array", peak)
			}
		}
	})
}
