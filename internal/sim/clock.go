package sim

import "time"

// TripStart is the wall-clock instant at which the paper's driving campaign
// began: the morning of August 8, 2022 in Los Angeles (Pacific time, UTC-7
// under daylight saving). All simulation timestamps are offsets from this
// instant, so logs carry realistic absolute times and the timestamp-zoo
// handled by package xcal (UTC vs local vs EDT) is exercised for real.
var TripStart = time.Date(2022, time.August, 8, 8, 0, 0, 0, time.FixedZone("PDT", -7*3600))
