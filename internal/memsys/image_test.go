package memsys_test

import (
	"fmt"
	"testing"

	"ruu/internal/livermore"
	"ruu/internal/memsys"
	"ruu/internal/progsynth"
)

// referenceImages returns the final memory images of the functional
// executor on every Livermore kernel and on a range of progsynth seeds,
// keyed by a name for failure messages.
func referenceImages(t *testing.T) map[string]*memsys.Memory {
	t.Helper()
	out := map[string]*memsys.Memory{}
	for _, k := range livermore.Kernels() {
		u, err := k.Unit()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		st, err := k.NewState()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if _, err := st.Run(u.Prog, 0, nil); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		out[k.Name] = st.Mem
	}
	var opts progsynth.Options
	for seed := int64(1); seed <= 40; seed++ {
		st := progsynth.NewState(seed, opts)
		if _, err := st.Run(progsynth.Generate(seed, opts), 0, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out[fmt.Sprintf("seed %d", seed)] = st.Mem
	}
	return out
}

// resized returns a copy of m with n words: truncated, or zero-extended
// with one non-zero word at the last address when longer, so both
// comparisons must stop at the common length.
func resized(m *memsys.Memory, n int) *memsys.Memory {
	c := memsys.NewMemory(n)
	for a := 0; a < min(n, m.Size()); a++ {
		c.Poke(int64(a), m.Peek(int64(a)))
	}
	if n > m.Size() {
		c.Poke(int64(n-1), 7)
	}
	return c
}

// TestImageFirstDiffMatchesMemory pins the page-sparse image's
// FirstDiff to Memory.FirstDiff on real reference images: unchanged,
// one word changed in a zero page, in a data page and at the last
// address, and the size changed both ways.
func TestImageFirstDiffMatchesMemory(t *testing.T) {
	for name, ref := range referenceImages(t) {
		im := ref.Sparse()
		zeroPage, dataWord := -1, int64(-1)
		for p := 0; p*memsys.PageWords < ref.Size(); p++ {
			nonZero := int64(-1)
			for a := p * memsys.PageWords; a < (p+1)*memsys.PageWords; a++ {
				if ref.Peek(int64(a)) != 0 {
					nonZero = int64(a)
					break
				}
			}
			switch {
			case nonZero < 0 && zeroPage < 0:
				zeroPage = p
			case nonZero >= 0 && dataWord < 0:
				dataWord = nonZero
			}
		}
		if zeroPage < 0 || dataWord < 0 {
			t.Fatalf("%s: image has no zero page (%d) or no data word (%d)", name, zeroPage, dataWord)
		}
		poked := func(addr int64) *memsys.Memory {
			c := ref.Clone()
			c.Poke(addr, c.Peek(addr)^0x5a5a)
			return c
		}
		last := int64(ref.Size() - 1)
		zeroWord := int64(zeroPage*memsys.PageWords + memsys.PageWords/2)
		cases := []struct {
			what string
			got  *memsys.Memory
			want int64
		}{
			{"unchanged", ref.Clone(), -1},
			{"zero page", poked(zeroWord), zeroWord},
			{"data page", poked(dataWord), dataWord},
			{"last word", poked(last), last},
			{"shorter", resized(ref, ref.Size()-3), int64(ref.Size() - 3)},
			{"longer", resized(ref, ref.Size()+memsys.PageWords/2), int64(ref.Size())},
		}
		for _, c := range cases {
			if d := ref.FirstDiff(c.got); d != c.want {
				t.Fatalf("%s %s: Memory.FirstDiff = %d, want %d", name, c.what, d, c.want)
			}
			if d := im.FirstDiff(c.got); d != c.want {
				t.Errorf("%s %s: Image.FirstDiff = %d, Memory.FirstDiff = %d", name, c.what, d, c.want)
			}
		}
	}
}

// TestImagePartialLastPage covers an image whose size is not a whole
// number of pages, with its non-zero words in the partial page.
func TestImagePartialLastPage(t *testing.T) {
	const n = 2*memsys.PageWords + 5
	m := memsys.NewMemory(n)
	m.Poke(n-2, 3)
	im := m.Sparse()
	for _, c := range []struct {
		got  *memsys.Memory
		want int64
	}{
		{m.Clone(), -1},
		{resized(m, n-1), n - 1},
		{resized(m, n-3), n - 3},
		{resized(m, n+1), n},
		{memsys.NewMemory(n), n - 2},
	} {
		if d, want := im.FirstDiff(c.got), m.FirstDiff(c.got); d != want || d != c.want {
			t.Errorf("size %d: Image.FirstDiff = %d, Memory.FirstDiff = %d, want %d", c.got.Size(), d, want, c.want)
		}
	}
}

// TestImageFirstDiffEveryAddress changes each word in turn, in a zero
// page, a data page and a partial last page, so every position within
// the comparison loops' eight-word blocks and their tails is covered.
func TestImageFirstDiffEveryAddress(t *testing.T) {
	const n = 3*memsys.PageWords + 13
	m := memsys.NewMemory(n)
	for a := int64(memsys.PageWords); a < 2*memsys.PageWords; a += 3 {
		m.Poke(a, a)
	}
	m.Poke(n-1, -1)
	im := m.Sparse()
	for a := int64(0); a < n; a++ {
		c := m.Clone()
		c.Poke(a, c.Peek(a)+1)
		if d, want := im.FirstDiff(c), m.FirstDiff(c); d != a || want != a {
			t.Fatalf("word %d changed: Image.FirstDiff = %d, Memory.FirstDiff = %d", a, d, want)
		}
	}
}

// TestImageIsACopy checks that the image does not alias the memory it
// was taken from.
func TestImageIsACopy(t *testing.T) {
	m := memsys.NewMemory(0)
	m.Poke(10, 1)
	im := m.Sparse()
	m.Poke(10, 2)
	if d := im.FirstDiff(m); d != 10 {
		t.Errorf("FirstDiff after writing the source = %d, want 10", d)
	}
}
