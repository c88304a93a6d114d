package des

// CountSets makes every table's Set call count with the number of slots it
// walked past, until it is called with nil. It is for tests that run one
// simulation at a time.
func CountSets(count func(walked int)) { setTally = count }
