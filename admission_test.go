package kspot

import (
	"errors"
	"testing"
)

const admissionSQL = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min"

func openAdmitted(t *testing.T, cfg AdmissionConfig) *System {
	t.Helper()
	sys, err := Open(DemoScenario(), WithAdmission(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAdmissionGlobalLimit pins the typed rejection of the global cap: the
// post over the limit surfaces *AdmissionError (errors.As, Kind "global")
// and consumes nothing — a close frees the slot for the next tenant.
func TestAdmissionGlobalLimit(t *testing.T) {
	sys := openAdmitted(t, AdmissionConfig{MaxQueries: 2})
	defer sys.Close()

	a, err := sys.Post(admissionSQL, WithTenant("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Post(admissionSQL, WithTenant("b"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Post(admissionSQL, WithTenant("c"))
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("post over limit: got %v, want *AdmissionError", err)
	}
	if adm.Kind != "global" || adm.Limit != 2 || adm.Tenant != "c" {
		t.Fatalf("rejection = %+v, want global/2/c", adm)
	}
	if total, _ := sys.AdmissionLoad(); total != 2 {
		t.Fatalf("load after rejection = %d, want 2", total)
	}

	// Closing a cursor frees its slot; the same post now lands.
	a.Close()
	if total, per := sys.AdmissionLoad(); total != 1 || per["a"] != 0 {
		t.Fatalf("load after close = %d %v, want 1 and no tenant a", total, per)
	}
	c, err := sys.Post(admissionSQL, WithTenant("c"))
	if err != nil {
		t.Fatalf("post after freed slot: %v", err)
	}
	c.Close()
	b.Close()
	if total, per := sys.AdmissionLoad(); total != 0 || len(per) != 0 {
		t.Fatalf("load after all closed = %d %v, want empty", total, per)
	}
}

// TestAdmissionTenantQuota pins the per-tenant axis: one tenant at quota is
// rejected with Kind "tenant" while other tenants keep being admitted.
func TestAdmissionTenantQuota(t *testing.T) {
	sys := openAdmitted(t, AdmissionConfig{TenantQuota: 1})
	defer sys.Close()

	if _, err := sys.Post(admissionSQL, WithTenant("a")); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Post(admissionSQL, WithTenant("a"))
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("tenant over quota: got %v, want *AdmissionError", err)
	}
	if adm.Kind != "tenant" || adm.Limit != 1 || adm.Tenant != "a" {
		t.Fatalf("rejection = %+v, want tenant/1/a", adm)
	}
	if _, err := sys.Post(admissionSQL, WithTenant("b")); err != nil {
		t.Fatalf("other tenant must still be admitted: %v", err)
	}
}

// TestAdmissionRunningCursorsUndisturbed pins that a rejected post touches
// nothing: a cursor stepping before the rejection keeps producing the same
// stream afterwards as an identical run that never saw the rejected post.
func TestAdmissionRunningCursorsUndisturbed(t *testing.T) {
	want := memo(t, row{world: "demo", parallel: 1, epochs: 3, queries: []rowQuery{{admissionSQL, AlgoAuto}}})
	sys := openAdmitted(t, AdmissionConfig{MaxQueries: 1})
	defer sys.Close()
	cur := post(t, sys, admissionSQL, AlgoAuto)
	var got []StepResult
	step := func(n int) {
		for ; n > 0; n-- {
			res, err := cur.Step()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res)
		}
	}
	step(1)
	if _, err := sys.Post(admissionSQL, WithTenant("late")); err == nil {
		t.Fatal("second post must be rejected at MaxQueries 1")
	}
	step(2)
	stepEqualByteIdentical(t, "around a rejected post", got, want.steps[0])
}

// TestAdmissionCloseAfterRejectedPost pins the teardown path: rejecting a
// post and then closing the System must neither deadlock nor leave a slot
// accounted (the rejected post reserved nothing to leak).
func TestAdmissionCloseAfterRejectedPost(t *testing.T) {
	sys := openAdmitted(t, AdmissionConfig{MaxQueries: 1})
	cur, err := sys.Post(admissionSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Post(admissionSQL); err == nil {
		t.Fatal("over-limit post must be rejected")
	}
	if _, err := cur.Step(); err != nil {
		t.Fatal(err)
	}
	sys.Close() // must return; the -race leg of the suite guards the rest
	if total, _ := sys.AdmissionLoad(); total != 1 {
		t.Fatalf("load after close = %d, want the still-open cursor's 1", total)
	}
	cur.Close()
	if total, _ := sys.AdmissionLoad(); total != 0 {
		t.Fatal("cursor close after system close must still release its slot")
	}
}

// TestAdmissionParseErrorConsumesNoSlot pins error ordering: a malformed
// query is a syntax error, never a consumed slot and never an
// *AdmissionError — even when the system is already at capacity.
func TestAdmissionParseErrorConsumesNoSlot(t *testing.T) {
	sys := openAdmitted(t, AdmissionConfig{MaxQueries: 1})
	defer sys.Close()

	var adm *AdmissionError
	_, err := sys.Post("SELECT TOP banana FROM sensors")
	if err == nil || errors.As(err, &adm) {
		t.Fatalf("malformed query: got %v, want a parse error", err)
	}
	if total, _ := sys.AdmissionLoad(); total != 0 {
		t.Fatalf("load after parse error = %d, want 0", total)
	}
	// The slot the parse error did not consume is still available.
	if _, err := sys.Post(admissionSQL); err != nil {
		t.Fatalf("post after parse error: %v", err)
	}
	// At capacity, a malformed post still reports syntax, not admission:
	// parsing runs first, so authors of broken queries see the real cause.
	_, err = sys.Post("SELECT TOP banana FROM sensors")
	if err == nil || errors.As(err, &adm) {
		t.Fatalf("malformed query at capacity: got %v, want a parse error", err)
	}
}
