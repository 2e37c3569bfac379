package bench

import (
	"testing"

	"kspot/internal/model"
	"kspot/internal/storage"
)

// TestStoreRecoveryBenchBodyRoundTrips pins the recovery benchmark's
// setup: the populated store it measures actually recovers to the full
// cursor, so recovery_ms times real log replay, not an empty open.
func TestStoreRecoveryBenchBodyRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenStore(dir, storage.DefaultStoreWindow)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[model.NodeID]model.Reading, RecoveryNodes)
	for e := 0; e < RecoveryEpochs; e++ {
		for n := 1; n <= RecoveryNodes; n++ {
			readings[model.NodeID(n)] = model.Reading{Node: model.NodeID(n), Epoch: model.Epoch(e), Value: model.Value(n)}
		}
		st.RecordReadings(model.Epoch(e), readings)
	}
	if msg := st.Stats().Err; msg != "" {
		t.Fatal(msg)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := storage.OpenStore(dir, storage.DefaultStoreWindow)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if e, ok := rec.Cursor(); !ok || e != RecoveryEpochs-1 {
		t.Fatalf("recovered cursor %v/%v, want %d", e, ok, RecoveryEpochs-1)
	}
	if s := rec.Stats(); s.Nodes != RecoveryNodes {
		t.Fatalf("recovered %d nodes, want %d", s.Nodes, RecoveryNodes)
	}
}

// TestMeasureReshardDowntimeSmoke runs one real 2→4 migration under
// background stepping — the reshard-downtime trajectory entry's body.
func TestMeasureReshardDowntimeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live migration measurement in -short mode")
	}
	ns, down, err := MeasureReshardDowntime(1)
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 {
		t.Fatalf("migration took %v ns", ns)
	}
	if down < 0 {
		t.Fatalf("downtime %v epochs", down)
	}
}

// BenchmarkStoreRecovery is the store-recovery trajectory row's body under
// `go test -bench`.
func BenchmarkStoreRecovery(b *testing.B) { RunStoreRecoveryBench(b) }
