package fabric

// The reference simulator for tests outside the package: internal/tcp imports
// fabric, so a test running tcp against the reference is a fabric_test one.
type (
	HopLog  = hopLog
	RefTCP  = refTCP
	RefFlow = refFlow
)

var (
	LogHops     = logHops
	CompareHops = compareHops
	RunRefTCP   = runRefTCP
)

// HopCounts returns how many drops and how many arrivals carrying SACK blocks
// log holds.
func HopCounts(log HopLog) (drops, sacked int) {
	for k, hs := range log {
		if k.drop {
			drops += len(hs)
			continue
		}
		for _, h := range hs {
			if h.sack[0] != [2]int64{} {
				sacked++
			}
		}
	}
	return drops, sacked
}
