package des

// CountSets makes every table's Set count itself in tally by the part of the
// table it joins, tally[0] the run and tally[1] the side heap, until it is
// called with nil. It is for tests that run one simulation at a time.
func CountSets(tally *[2]int64) { setTally = tally }
