package a

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

type cache struct {
	slots []uint64
	cb    func() int
}

func check(x int) error {
	if x < 0 {
		return errors.New("negative")
	}
	return nil
}

// —— known good ——————————————————————————————————————————————

// Sum is a flat scalar loop: nothing allocates.
// netmarkvet:hotpath
func Sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// LocalClosure captures xs but is only ever called, so it stays on the
// stack.
// netmarkvet:hotpath
func LocalClosure(xs []int) int {
	f := func(i int) int { return xs[i] }
	return f(0) + f(len(xs)-1)
}

// FillDst appends into a caller-provided slice: the cap is the
// caller's contract, not a hidden growth.
// netmarkvet:hotpath
func FillDst(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// PresizedLocal appends within a cap it made itself — the make is the
// declared warmup allocation.
// netmarkvet:hotpath
func PresizedLocal(n int) int {
	buf := make([]int, 0, n) // netmarkvet:allocok — one-time warmup buffer
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return len(buf)
}

// ErrPath builds its error only after something already went wrong.
// netmarkvet:hotpath
func ErrPath(x int) error {
	if err := check(x); err != nil {
		return fmt.Errorf("check %d: %w", x, err)
	}
	return nil
}

// ErrCase fails out of a switch case: the default clause ends in a
// non-nil error return, so its formatting is an error path too.
// netmarkvet:hotpath
func ErrCase(kind byte, x int) (int, error) {
	switch kind {
	case 0:
		return x, nil
	case 1:
		return -x, nil
	default:
		return 0, fmt.Errorf("unknown kind %d", kind)
	}
}

// SortSearch hands a non-capturing comparison to the stdlib, which
// does not retain it.
// netmarkvet:hotpath
func SortSearch(xs []int, want int) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] >= want })
}

// StackComposite keeps the composite local: no escape, no alloc.
// netmarkvet:hotpath
func StackComposite(a, b int) int {
	p := struct{ x, y int }{a, b}
	return p.x + p.y
}

// warmSlow is the annotated slow path PresizedHit falls back to; the
// allocok'd call below excuses its whole subtree.
func warmSlow(c *cache) uint64 {
	c.slots = make([]uint64, 16)
	return c.slots[0]
}

// PresizedHit is a cache probe whose miss path is excused.
// netmarkvet:hotpath
func PresizedHit(c *cache) uint64 {
	if len(c.slots) > 0 {
		return c.slots[0]
	}
	return warmSlow(c) // netmarkvet:allocok — cold miss fills the cache once
}

// flatHelper is clean, so calling it transitively is clean.
func flatHelper(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// ViaHelper reaches only allocation-free module code.
// netmarkvet:hotpath
func ViaHelper(xs []uint64) uint64 {
	return flatHelper(xs) + Sum(xs)
}

// —— known bad ———————————————————————————————————————————————

// BadMake allocates on every call.
// netmarkvet:hotpath
func BadMake() []int {
	return make([]int, 8) // want `hot path BadMake performs hidden allocation: make allocates`
}

// BadMapLit allocates a map per call.
// netmarkvet:hotpath
func BadMapLit(k string) int {
	m := map[string]int{"a": 1} // want `map literal allocates`
	return m[k]
}

// BadSliceLit allocates its backing array.
// netmarkvet:hotpath
func BadSliceLit() int {
	xs := []int{1, 2, 3} // want `slice literal allocates`
	return xs[1]
}

// BadConv copies the byte slice into a fresh string.
// netmarkvet:hotpath
func BadConv(b []byte) string {
	return string(b) // want `conversion \[\]byte -> string copies`
}

// BadSprintf formats on the steady-state path.
// netmarkvet:hotpath
func BadSprintf(x int) string {
	return fmt.Sprintf("%d", x) // want `call to fmt.Sprintf allocates` `argument boxes int into any`
}

// BadReplacer rebuilds stdlib machinery per call.
// netmarkvet:hotpath
func BadReplacer(s string) string {
	r := strings.NewReplacer("&", "&amp;") // want `call to strings.NewReplacer allocates`
	return r.Replace(s)
}

// BadGrowingAppend has no provable cap.
// netmarkvet:hotpath
func BadGrowingAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2) // want `append beyond a provable pre-sized cap may grow`
	}
	return out
}

// BadEscapingComposite returns a pointer to its literal.
// netmarkvet:hotpath
func BadEscapingComposite(x, y int) *struct{ a, b int } {
	return &struct{ a, b int }{x, y} // want `escaping &composite literal allocates`
}

// BadEscapingClosure stores a capturing closure into a field.
// netmarkvet:hotpath
func BadEscapingClosure(c *cache, x int) {
	c.cb = func() int { return x } // want `escaping capturing closure allocates`
}

// BadGo spawns a goroutine per call.
// netmarkvet:hotpath
func BadGo(ch chan int) {
	go func() { ch <- 1 }() // want `go statement allocates a goroutine`
}

// allocHelper hides the allocation one call away.
func allocHelper(n int) []uint64 {
	return make([]uint64, n) // want `hidden allocation in allocHelper, reached from hot path BadTransitive: make allocates`
}

// BadTransitive reaches allocHelper's make through the module call
// graph.
// netmarkvet:hotpath
func BadTransitive(n int) []uint64 {
	return allocHelper(n)
}
