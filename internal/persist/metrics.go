package persist

import "kubeknots/internal/obs"

// persist_* metric families, registered once on the default registry. Pure
// harness telemetry: nothing here feeds back into the simulation.
var (
	mSnapshotBytes = obs.Default().Gauge("persist_snapshot_bytes",
		"Encoded size of the most recent snapshot.")
	mSnapshotSeconds = obs.Default().Histogram("persist_snapshot_seconds",
		"Wall-clock latency of one snapshot write (encode + fsync + rename).",
		obs.LatencyBuckets)
	mSnapshots = obs.Default().Counter("persist_snapshots_total",
		"Snapshots written to stable storage.")
	mWALRecords = obs.Default().CounterVec("persist_wal_records_total",
		"Commands appended to the write-ahead log.", "type")
	mWALFsyncs = obs.Default().Counter("persist_wal_fsyncs_total",
		"WAL fsyncs, one per appended record.")
	mRecovered = obs.Default().Counter("persist_recovery_replayed_total",
		"Commands replayed during crash recovery.")
	mErrors = obs.Default().Counter("persist_errors_total",
		"Snapshot or WAL operations that failed.")
)

func recordTypeName(t byte) string {
	switch t {
	case RecordSubmit:
		return "submit"
	case RecordAdvance:
		return "advance"
	default:
		return "unknown"
	}
}
