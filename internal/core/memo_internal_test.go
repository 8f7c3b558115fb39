package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestMemoKeysBuildsAndCopies: Builds counts each build by its key's
// kind, a failed one too, and never a remembered result; every caller
// gets a copy of its own.
func TestMemoKeysBuildsAndCopies(t *testing.T) {
	var m Memo
	build := func() ([]int, error) { return []int{3, 1, 2}, nil }
	first, _ := m.do(string([]byte{circuitKey, 1}), build, nil)
	first[0] = 99
	again, _ := m.do(string([]byte{circuitKey, 1}), build, nil)
	if fmt.Sprint(again) != "[3 1 2]" {
		t.Fatalf("a remembered result reads %v after its first caller edited theirs", again)
	}
	boom := errors.New("boom")
	if _, err := m.do(string([]byte{wppKey, 1}), func() ([]int, error) { return nil, boom }, nil); err != boom {
		t.Fatalf("error %v", err)
	}
	if seq, err := m.do(string([]byte{wppKey, 1}), build, nil); err != nil || len(seq) != 3 {
		t.Fatalf("after a failure: %v, %v", seq, err)
	}
	if circuits, paths := m.Builds(); circuits != 1 || paths != 2 {
		t.Fatalf("%d circuit and %d path builds, want 1 and 2", circuits, paths)
	}
}
