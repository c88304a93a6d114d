package exp

// scenario_exp.go holds the experiments whose definition is an embedded
// asyncfd-scenario/v1 document (scenarios/*.json): the fault-scenario sweeps
// R1 and R2, the topology sweep LT and the consensus bridge E7. Each is the
// document parsed with Options.Quick selecting its "quick" overlay and run
// by ScenarioTable; the documents' "description" strings say what each table
// measures and why its schedule is timed the way it is.

import (
	"embed"
	"fmt"

	"asyncfd/internal/scenario"
)

//go:embed scenarios/*.json
var builtinScenarios embed.FS

// runBuiltinScenario runs the embedded document scenarios/<file>.json. The
// documents ship inside the binary, so a read or parse error is a build
// defect; TestBuiltinRegistry parses every one in both modes.
func runBuiltinScenario(file string, opts Options) (*Table, error) {
	data, err := builtinScenarios.ReadFile("scenarios/" + file + ".json")
	if err != nil {
		return nil, fmt.Errorf("exp: embedded scenario: %w", err)
	}
	sc, err := scenario.Parse(data, opts.Quick)
	if err != nil {
		return nil, fmt.Errorf("exp: embedded scenario %s: %w", file, err)
	}
	return ScenarioTable(sc, opts)
}

// R1CrashRecovery is the crash-recovery sweep: one process crashes, comes
// back (with fresh or persisted detector state) and crashes again. For every
// detector kind and state mode the table reports the initial detection time,
// the trust-restoration time after the restart, the re-detection time of the
// second crash, and the mistake storm the restart provokes while the process
// is back up.
func R1CrashRecovery(opts Options) (*Table, error) { return runBuiltinScenario("r1", opts) }

// R2PartitionHeal is the partition/heal sweep: a minority island is cut off
// for a window, then the partition heals. The majority side still reaches
// the async detector's quorum, so it storms suspicions of the minority just
// like the timer-based detectors time the minority out; the table reports
// the storm size, how long after the heal the last wrongful suspicion is
// corrected, and whether every run re-converged cleanly.
func R2PartitionHeal(opts Options) (*Table, error) { return runBuiltinScenario("r2", opts) }

// LTTopologySweep measures neighbor-local failure detection at large n over
// the four topology families: per-neighbor detection time of one crash, and
// traffic per process per second. The expected shape is the sweep's point —
// detection time tracks Θ and message cost tracks the connectivity degree,
// while n grows 4× across the rows without moving either.
func LTTopologySweep(opts Options) (*Table, error) { return runBuiltinScenario("lt", opts) }

// E7Consensus is the theory-to-practice bridge: the same Chandra–Toueg ◇S
// consensus runs over each detector implementation while the first
// coordinator is crashed. Decision latency is gated by how fast the detector
// lets participants skip the dead coordinator.
func E7Consensus(opts Options) (*Table, error) { return runBuiltinScenario("e7", opts) }
