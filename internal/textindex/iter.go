package textindex

// Streaming query iterators.
//
// A query result can be the size of the corpus while the caller only
// ever holds a page of it — a section scan that stops at its limit, a
// decode loop that reuses one chunk buffer.  IDIter therefore hands the
// block-skipping intersection out one id at a time, over immutable
// views captured under one brief RLock, so a caller allocates nothing
// per id beyond the iterator itself and pays only for the ids it pulls.

import (
	"slices"
	"sort"
	"strings"
)

// IDIter streams the ids of a query result in ascending order.  The
// zero value is an exhausted iterator.  An IDIter is single-use and not
// safe for concurrent use; it reads immutable view storage, so holding
// one open never blocks writers.
type IDIter struct {
	its []*iter // its[0] drives: the smallest list
}

// Next returns the next result id, or false when the stream is done.
func (x *IDIter) Next() (uint64, bool) {
	if x == nil || len(x.its) == 0 {
		return 0, false
	}
	return stepIntersect(x.its)
}

// SeekGE skips the result ids below target and returns the next one, or
// false when the stream is done.  Like Next it consumes the id it
// returns.
func (x *IDIter) SeekGE(target uint64) (uint64, bool) {
	if x == nil || len(x.its) == 0 {
		return 0, false
	}
	x.its[0].seekGE(target)
	return stepIntersect(x.its)
}

// And streams the ids in both x and y, consuming both.  They may come
// from different indexes: a view is immutable, so their iterators meet
// in one stepIntersect, the smallest list driving.
func (x *IDIter) And(y *IDIter) *IDIter {
	if x == nil || y == nil || len(x.its) == 0 || len(y.its) == 0 {
		return &IDIter{}
	}
	its := append(x.its[:len(x.its):len(x.its)], y.its...)
	slices.SortFunc(its, func(a, b *iter) int { return a.v.live - b.v.live })
	return &IDIter{its: its}
}

// stepIntersect emits the next id present in every iterator.  its[0] is
// the driver (smallest list); the rest are sought by block maxID, so
// only candidate blocks decode.  When an iterator disagrees, the driver
// gallops straight to the blocker's head.
func stepIntersect(its []*iter) (uint64, bool) {
	drv := its[0]
outer:
	for {
		x, ok := drv.head()
		if !ok {
			return 0, false
		}
		for _, it := range its[1:] {
			it.seekGE(x)
			y, ok := it.head()
			if !ok {
				return 0, false
			}
			if y != x {
				drv.seekGE(y)
				continue outer
			}
		}
		drv.advance()
		return x, true
	}
}

// intersectIter wraps sorted views (smallest first) as a streaming
// intersection.  A single view streams through the same kernel — the
// inner loop is empty.
func intersectIter(views []view) *IDIter {
	its := make([]*iter, len(views))
	for i, v := range views {
		its[i] = newIter(v)
	}
	return &IDIter{its: its}
}

// LookupIter streams the ids containing term (its first token), in
// ascending order.
func (ix *Index) LookupIter(term string) *IDIter {
	toks := Tokenize(term)
	return intersectIter(ix.andViews(toks[:min(1, len(toks))]))
}

// Postings streams the ids posted under term, taken as it is: it is not
// tokenized, so a term of several words, or of none, is one key.
func (ix *Index) Postings(term string) *IDIter {
	return intersectIter(ix.andViews([]string{term}))
}

// EachPrefix calls fn, in term order, with each term that begins with
// prefix and the ids posted under it.  The views are captured under one
// RLock and fn runs after it is released.
func (ix *Index) EachPrefix(prefix string, fn func(term string, ids *IDIter)) {
	var terms []string
	var views []view
	ix.mu.RLock()
	ix.terms.AscendPrefixFunc(prefix,
		func(t string) bool { return strings.HasPrefix(t, prefix) },
		func(t string, pls []*postingList) bool {
			terms = append(terms, t)
			views = append(views, pls[0].view())
			return true
		})
	ix.mu.RUnlock()
	for i, t := range terms {
		fn(t, intersectIter(views[i:i+1]))
	}
}

// AndIter streams the ids containing every term of the query.  The
// query string is tokenized, so AndIter("space shuttle") intersects the
// two terms.
//
// Only list views (slice headers over immutable storage) are captured
// under the read lock; the skip-driven intersection runs outside it,
// one id per Next call, so a long intersection over large lists never
// starves writers.  The result reflects some interleaving of concurrent
// writes — the same guarantee the traversal kernel already gives, since
// rows can vanish between the index probe and the heap fetch anyway.
func (ix *Index) AndIter(query string) *IDIter {
	return intersectIter(ix.andViews(Tokenize(query)))
}

// andViews captures one view per query term under a brief RLock and
// sorts them smallest-live first so the rarest term drives.  A query
// with no tokens or with a term absent from the index returns nil —
// the intersection is empty either way.
func (ix *Index) andViews(terms []string) []view {
	if len(terms) == 0 {
		return nil
	}
	views := make([]view, 0, len(terms))
	ix.mu.RLock()
	for _, term := range terms {
		got := ix.terms.Get(term)
		if len(got) == 0 {
			ix.mu.RUnlock()
			return nil
		}
		views = append(views, got[0].view())
	}
	ix.mu.RUnlock()
	sort.Slice(views, func(i, j int) bool { return views[i].live < views[j].live })
	return views
}
