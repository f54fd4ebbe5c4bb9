package campaign

// ProfilePhases enables runtime/pprof labels on the production engine's
// phone goroutines: every scheduled phase runs under a `phase` label naming
// its test kind (bulk-dl, bulk-ul, rtt, speedtest, ar, cav, video, gaming,
// static, or passive for the handover loggers) and an `op` label naming
// the phone's operator (the dataset package adds a "hash" phase at its
// digest folds when its own flag is set). Profiling front-ends group
// samples by these labels, so a CPU profile splits along the campaign's
// test phases and phones.
//
// Off by default: label maps are attached per phase, and the fleet's hot
// loop should not pay for them unless a profile is actually being taken.
// cmd/fleet and cmd/drivesim set it alongside -cpuprofile.
var ProfilePhases bool
