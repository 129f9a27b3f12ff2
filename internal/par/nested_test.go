package par

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// spinWork is a small deterministic busy loop that widens the race
// window between dispatch and completion without adding noise.
func spinWork(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

var spinSink atomic.Int64

// leafValue is the deterministic per-leaf payload; any change shows up
// in the serial-reference comparison.
func leafValue(id int) int { return id*id%9973 + 1 }

// refTree computes the serial reference value of a nested fan-out tree:
// the node at level has widths[level:] levels of children below it
// (level == len(widths) is a leaf). Child ids append a base-64 digit to
// the parent id, so every node's id encodes its path; the root is
// refTree(widths, 0, 0).
func refTree(widths []int, level, id int) int {
	if level == len(widths) {
		return leafValue(id)
	}
	sum := id
	for i := 0; i < widths[level]; i++ {
		sum += refTree(widths, level+1, id*64+i+1)
	}
	return sum
}

// mapTree evaluates the same tree through nested per-call Map calls,
// each bounded to workers goroutines — the shape of Fig 3's variants ×
// traces fan-out. The leaf whose id is failID returns an error.
func mapTree(workers int, widths []int, level, id, failID int) (int, error) {
	if level == len(widths) {
		spinSink.Add(int64(spinWork(300)))
		if id == failID {
			return 0, fmt.Errorf("leaf %d failed", id)
		}
		return leafValue(id), nil
	}
	children, err := Map(widths[level], Options{Workers: workers}, func(i int) (int, error) {
		return mapTree(workers, widths, level+1, id*64+i+1, failID)
	})
	if err != nil {
		return 0, err
	}
	sum := id
	for _, c := range children {
		sum += c
	}
	return sum, nil
}

// TestMapNestedError checks that the lowest-index rule composes through
// nesting: the root error is the leftmost failing leaf's.
func TestMapNestedError(t *testing.T) {
	widths := []int{3, 4, 2}
	// Leftmost leaf of the second top-level subtree: id path 2 → 2·64+1 → ….
	failID := (2*64+1)*64 + 1
	_, err := mapTree(3, widths, 0, 0, failID)
	want := fmt.Sprintf("leaf %d failed", failID)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestMapNestedStress runs randomized fan-out trees (depth ≤ 4,
// width ≤ 32) through nested Map calls at various worker counts and
// asserts, under -race, that every run finishes and equals the serial
// reference (input-ordered results at every level).
func TestMapNestedStress(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + workers)))
			rounds := 10
			if testing.Short() {
				rounds = 4
			}
			for round := 0; round < rounds; round++ {
				depth := 1 + rng.Intn(4)
				widths := make([]int, depth)
				prod := 1
				for i := range widths {
					maxW := 32
					if c := 2048 / prod; c < maxW {
						maxW = c
					}
					if maxW < 1 {
						maxW = 1
					}
					widths[i] = 1 + rng.Intn(maxW)
					prod *= widths[i]
				}
				got, err := mapTree(workers, widths, 0, 0, -1)
				if err != nil {
					t.Fatalf("round %d widths %v: %v", round, widths, err)
				}
				if want := refTree(widths, 0, 0); got != want {
					t.Fatalf("round %d widths %v: got %d, want %d", round, widths, got, want)
				}
			}
		})
	}
}

// FuzzMapTree fuzzes the tree shape, worker count and error injection
// point, checking the nested Map result (or error) against the serial
// reference every time. `go test` runs the seed corpus; `go test
// -fuzz=FuzzMapTree` explores further.
func FuzzMapTree(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(1), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(4), uint8(4), uint8(4), uint8(4), uint16(9999))
	f.Add(uint8(7), uint8(1), uint8(1), uint8(1), uint8(1), uint16(1))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), uint16(40))
	f.Fuzz(func(t *testing.T, w, a, b, c, d uint8, errSel uint16) {
		workers := 1 + int(w)%4
		var widths []int
		for _, x := range []uint8{a, b, c, d} {
			if x == 0 {
				break
			}
			widths = append(widths, 1+int(x)%4)
		}
		if len(widths) == 0 {
			return
		}
		// Enumerate leaf ids so errSel can deterministically pick one (or
		// none) to fail; the expected error is the leftmost failing leaf.
		var leaves []int
		var walk func(level, id int)
		walk = func(level, id int) {
			if level == len(widths) {
				leaves = append(leaves, id)
				return
			}
			for i := 0; i < widths[level]; i++ {
				walk(level+1, id*64+i+1)
			}
		}
		walk(0, 0)
		failID := -1
		if int(errSel) < len(leaves) {
			failID = leaves[errSel]
		}

		got, err := mapTree(workers, widths, 0, 0, failID)
		if failID >= 0 {
			want := fmt.Sprintf("leaf %d failed", failID)
			if err == nil || err.Error() != want {
				t.Fatalf("widths %v failID %d: err = %v, want %q", widths, failID, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("widths %v: %v", widths, err)
		}
		if want := refTree(widths, 0, 0); got != want {
			t.Fatalf("widths %v: got %d, want %d", widths, got, want)
		}
	})
}
