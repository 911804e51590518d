package core

import "testing"

func TestPredFileAllocAndDefaults(t *testing.T) {
	f := newPredFile()
	// id 0 is "not predicated": always known-true.
	if !f.known(0) || !f.value(0) {
		t.Error("predicate id 0 must be known-true")
	}
	p1 := f.alloc()
	p2 := f.alloc()
	if p1 == 0 || p2 == 0 || p1 == p2 {
		t.Fatalf("bad ids %d %d", p1, p2)
	}
	if f.known(p1) || f.value(p1) {
		t.Error("fresh predicate should be unknown and false-valued")
	}
}

func TestPredFileBroadcastWakesWaiters(t *testing.T) {
	f := newPredFile()
	id := f.alloc()
	u1, u2 := uopRef(1), uopRef(2)
	if f.await(id, u1) {
		t.Error("await on unknown predicate reported known")
	}
	f.await(id, u2)
	woken := f.broadcast(id, true)
	if len(woken) != 2 {
		t.Fatalf("woke %d waiters, want 2", len(woken))
	}
	if !f.known(id) || !f.value(id) {
		t.Error("broadcast did not record value")
	}
	// Await after broadcast returns known immediately, no registration.
	if !f.await(id, u1) {
		t.Error("await after broadcast should report known")
	}
	// Re-broadcast with the same value is a no-op.
	if w := f.broadcast(id, true); w != nil {
		t.Error("same-value re-broadcast returned waiters")
	}
}

func TestPredFileConflictingBroadcastPanics(t *testing.T) {
	f := newPredFile()
	id := f.alloc()
	f.broadcast(id, true)
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-broadcast did not panic")
		}
	}()
	f.broadcast(id, false)
}

func TestPredFileUnknownID(t *testing.T) {
	f := newPredFile()
	if f.known(99) {
		t.Error("unallocated id reported known")
	}
	if f.broadcast(99, true) != nil {
		t.Error("broadcast to unallocated id returned waiters")
	}
	if !f.await(99, 1) {
		t.Error("await on unallocated id should not register")
	}
	if f.get(0) != nil {
		t.Error("get(0) should be nil")
	}
}

func TestExitCaseNames(t *testing.T) {
	// The exit cases must map 1:1 onto Table 1 of the paper.
	if Exit1 != 1 || Exit2 != 2 || Exit3 != 3 || Exit4 != 4 || Exit5 != 5 || Exit6 != 6 {
		t.Error("exit case constants drifted from Table 1 numbering")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeBaseline: "baseline",
		ModePerfect:  "perfect-cbp",
		ModeDMP:      "dmp",
		ModeDHP:      "dhp",
		ModeDualPath: "dualpath",
		Mode(42):     "mode(42)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestUopKindStrings(t *testing.T) {
	want := map[uopKind]string{
		kindInst:      "inst",
		kindEnterPred: "enter.pred.path",
		kindEnterAlt:  "enter.alternate.path",
		kindExitPred:  "exit.pred",
		kindSelect:    "select-uop",
		kindFork:      "fork",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestUopSrcReady(t *testing.T) {
	u := &uop{numSrc: 2}
	if u.srcReady() {
		t.Error("unready sources reported ready")
	}
	u.src1Ready, u.src2Ready = true, true
	if !u.srcReady() {
		t.Error("ready sources reported unready")
	}
	sel := &uop{numSrc: 3, src1Ready: true, src2Ready: true}
	if sel.srcReady() {
		t.Error("select with pending src3 reported ready")
	}
	sel.src3Ready = true
	if !sel.srcReady() {
		t.Error("fully ready select reported unready")
	}
}

func TestUopMarkers(t *testing.T) {
	for _, k := range []uopKind{kindEnterPred, kindEnterAlt, kindExitPred, kindFork} {
		if !(&uop{kind: k}).isMarker() {
			t.Errorf("%v not a marker", k)
		}
	}
	if (&uop{kind: kindInst}).isMarker() || (&uop{kind: kindSelect}).isMarker() {
		t.Error("inst/select misclassified as marker")
	}
	if !(&uop{kind: kindInst}).countsAsInst() || (&uop{kind: kindSelect}).countsAsInst() {
		t.Error("countsAsInst wrong")
	}
}
