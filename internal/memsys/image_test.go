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

// resized returns a copy of m with n words that shares no page with
// it: every word is poked, so every page is stored, zeros included.
// When longer, it is zero-extended with one non-zero word at the last
// address, so both comparisons must stop at the common length.
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

// deepCopy returns a copy of m that shares no page with it.
func deepCopy(m *memsys.Memory) *memsys.Memory { return resized(m, m.Size()) }

// TestImageFirstDiffMatchesMemory pins FirstDiff from a shared image (a
// Clone, which skips the pages it shares) to FirstDiff from a deep copy
// (which shares none, and stores its zero pages) on real reference
// images: unchanged, one word changed in a zero page, in a data page
// and at the last address, and the size changed both ways. Equal must
// agree with both.
func TestImageFirstDiffMatchesMemory(t *testing.T) {
	for name, ref := range referenceImages(t) {
		shared, deep := ref.Clone(), deepCopy(ref)
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
			if d := shared.FirstDiff(c.got); d != c.want {
				t.Fatalf("%s %s: FirstDiff from the shared image = %d, want %d", name, c.what, d, c.want)
			}
			if d := deep.FirstDiff(c.got); d != c.want {
				t.Errorf("%s %s: FirstDiff from the deep copy = %d, want %d", name, c.what, d, c.want)
			}
			if d := c.got.FirstDiff(deep); d != c.want {
				t.Errorf("%s %s: FirstDiff to the deep copy = %d, want %d", name, c.what, d, c.want)
			}
			if eq := shared.Equal(c.got); eq != (c.want < 0) || deep.Equal(c.got) != eq {
				t.Errorf("%s %s: Equal = %v from the shared image, %v from the deep copy, want %v",
					name, c.what, eq, deep.Equal(c.got), c.want < 0)
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
	shared, deep := m.Clone(), deepCopy(m)
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
		if d, want := shared.FirstDiff(c.got), deep.FirstDiff(c.got); d != want || d != c.want {
			t.Errorf("size %d: FirstDiff from the shared image = %d, from the deep copy = %d, want %d", c.got.Size(), d, want, c.want)
		}
	}
}

// TestImageFirstDiffEveryAddress changes each word in turn of a clone,
// in a zero page, a data page and a partial last page, so every
// position within the comparison loops' eight-word blocks and their
// tails is covered, against both the image the clone shares its other
// pages with and a deep copy.
func TestImageFirstDiffEveryAddress(t *testing.T) {
	const n = 3*memsys.PageWords + 13
	m := memsys.NewMemory(n)
	for a := int64(memsys.PageWords); a < 2*memsys.PageWords; a += 3 {
		m.Poke(a, a)
	}
	m.Poke(n-1, -1)
	deep := deepCopy(m)
	for a := int64(0); a < n; a++ {
		c := m.Clone()
		c.Poke(a, c.Peek(a)+1)
		if d, want, back := m.FirstDiff(c), deep.FirstDiff(c), c.FirstDiff(deep); d != a || want != a || back != a {
			t.Fatalf("word %d changed: FirstDiff from the source = %d, from the deep copy = %d, to it = %d", a, d, want, back)
		}
	}
}

// TestImageIsACopy checks that a clone and its source do not alias:
// a write to either, after the Clone, is not seen by the other.
func TestImageIsACopy(t *testing.T) {
	m := memsys.NewMemory(0)
	m.Poke(10, 1)
	c := m.Clone()
	m.Poke(10, 2)
	if d := c.FirstDiff(m); d != 10 || c.Peek(10) != 1 {
		t.Errorf("after writing the source: FirstDiff = %d, clone's word = %d; want 10, 1", d, c.Peek(10))
	}
	if f := c.Write(memsys.PageWords+3, 5); f != nil {
		t.Fatal(f)
	}
	if m.Peek(memsys.PageWords+3) != 0 {
		t.Error("a write to the clone's zero page shows in the source")
	}
}
