package batch

import "wheels/internal/dataset"

// EmitBank is a lane's staging area for the dataset records of one finished
// test phase. The emit half of the campaign builds each table's records here
// and hands the whole slice to the sink through its EmitXxxAll batch
// methods — one interface dispatch per table per phase instead of one per
// record per Tee member. The slices are reused across phases (reset with
// [:0] by the producer), so a lane that has reached its working size stages
// without allocating.
//
// Handovers need no bank: Lane.HORecs is already the staged slice.
type EmitBank struct {
	Thr []dataset.ThroughputSample
	RTT []dataset.RTTSample
}
