package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestMemoSingleFlight: goroutines asking for one key at once build it
// once and each get a copy of their own.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo
	release := make(chan struct{})
	builds := 0
	build := func() ([]int, error) {
		builds++ // only ever one build runs
		<-release
		return []int{3, 1, 2}, nil
	}
	const n = 8
	got := make([][]int, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq, err := m.do([]byte{circuitKey, 1}, build)
			if err != nil {
				t.Error(err)
			}
			got[i] = seq
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the others join the build in flight
	close(release)
	wg.Wait()
	if circuits, _ := m.Builds(); builds != 1 || circuits != 1 {
		t.Fatalf("%d builds, %d counted", builds, circuits)
	}
	got[0][0] = 99
	for i, seq := range got[1:] {
		if fmt.Sprint(seq) != "[3 1 2]" {
			t.Fatalf("caller %d got %v", i+1, seq)
		}
	}
}

// TestMemoForgetsFailures: a failed build is not remembered, so the
// next caller builds again.
func TestMemoForgetsFailures(t *testing.T) {
	var m Memo
	boom := errors.New("boom")
	if _, err := m.do([]byte{wppKey, 1}, func() ([]int, error) { return nil, boom }); err != boom {
		t.Fatalf("error %v", err)
	}
	seq, err := m.do([]byte{wppKey, 1}, func() ([]int, error) { return []int{1}, nil })
	if err != nil || len(seq) != 1 {
		t.Fatalf("after a failure: %v, %v", seq, err)
	}
	if _, paths := m.Builds(); paths != 2 {
		t.Fatalf("%d path builds, want 2", paths)
	}
}

// TestMemoBound: the memo holds at most memoBytes, dropping the least
// recently used entries first.
func TestMemoBound(t *testing.T) {
	var m Memo
	const stops = 1 << 14 // 128 KiB per result
	key := func(i int) []byte { return []byte{circuitKey, byte(i), byte(i >> 8)} }
	build := func() ([]int, error) { return make([]int, stops), nil }
	per := 3 + 8*stops
	fit := memoBytes / per
	for i := 0; i < fit; i++ {
		m.do(key(i), build)
	}
	m.do(key(0), build) // a hit: key 0 is now the most recently used
	m.do(key(fit), build)
	if m.held > memoBytes {
		t.Fatalf("holds %d bytes, bound %d", m.held, memoBytes)
	}
	if _, ok := m.entries[string(key(1))]; ok {
		t.Fatal("the least recently used entry was kept")
	}
	if _, ok := m.entries[string(key(0))]; !ok {
		t.Fatal("a recently used entry was dropped")
	}
	if circuits, _ := m.Builds(); circuits != fit+1 {
		t.Fatalf("%d builds, want %d", circuits, fit+1)
	}
}
