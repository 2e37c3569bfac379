package model

import (
	"bytes"
	"slices"
	"testing"
)

// refFold is the reference a view is checked against: a map from group to
// its merged partial, folded in whatever order the partials come.
func refFold(parts []Partial) map[GroupID]Partial {
	m := map[GroupID]Partial{}
	for _, p := range parts {
		m[p.Group] = m[p.Group].Merge(p)
	}
	return m
}

// refEncode is the reference wire form: the map's partials in ascending
// group order.
func refEncode(m map[GroupID]Partial) []byte {
	gs := make([]GroupID, 0, len(m))
	for g := range m {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	var b []byte
	for _, g := range gs {
		b = AppendPartial(b, m[g])
	}
	return b
}

// refTopK ranks the map's groups in the system's one order.
func refTopK(m map[GroupID]Partial, kind AggKind, k int) []Answer {
	var as []Answer
	for _, p := range m {
		as = append(as, Answer{Group: p.Group, Score: Quantize(p.Eval(kind))})
	}
	SortAnswers(as)
	if len(as) > k {
		as = as[:k]
	}
	return as
}

// FuzzViewMerge folds a random multiset of partials two ways — AddPartial
// one by one in the input's order, and MergeView of an arbitrary split into
// sub-views, each built in that order — and checks both against the map
// reference: equal wire bytes, group count and TOP-K under every aggregate.
// Every 4 input bytes are one reading: group, value (two bytes) and the
// sub-view it lands in.
func FuzzViewMerge(f *testing.F) {
	f.Add([]byte{3, 10, 0, 0, 1, 20, 0, 1, 3, 30, 0, 2, 2, 40, 0, 0})
	f.Add(bytes.Repeat([]byte{7, 1, 2, 3}, 8))
	wide := make([]byte, 0, 4*200)
	for i := 0; i < 200; i++ {
		wide = append(wide, byte(199-i), byte(i), byte(i>>3), byte(i))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		const splits = 4
		var parts []Partial
		var sub [splits]*View
		for i := range sub {
			sub[i] = NewView()
		}
		one := NewView()
		for ; len(data) >= 4; data = data[4:] {
			fp := FixedPoint(int16(uint16(data[1]) | uint16(data[2])<<8))
			p := NewPartial(GroupID(data[0]), FromFixed(fp))
			parts = append(parts, p)
			one.AddPartial(p)
			sub[int(data[3])%splits].AddPartial(p)
		}
		// Merge the sub-views pairwise first, then into one target, so the
		// two-pointer pass runs on non-empty views on both sides.
		sub[0].MergeView(sub[1])
		sub[2].MergeView(sub[3])
		merged := NewView()
		merged.MergeView(sub[2])
		merged.MergeView(sub[0])

		ref := refFold(parts)
		want := refEncode(ref)
		for name, v := range map[string]*View{"AddPartial": one, "MergeView": merged} {
			if got := AppendView(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("%s: wire form %x, reference %x", name, got, want)
			}
			if v.Len() != len(ref) {
				t.Fatalf("%s: Len %d, reference %d", name, v.Len(), len(ref))
			}
			for kind := AggAvg; kind <= AggCount; kind++ {
				if got, w := v.TopK(kind, 5), refTopK(ref, kind, 5); !EqualAnswers(got, w) {
					t.Fatalf("%s: TopK(%v) = %v, reference %v", name, kind, got, w)
				}
			}
		}
	})
}
