package auric

import (
	"auric/internal/controller"
	"auric/internal/ems"
	"auric/internal/launch"
	"auric/internal/rng"
)

// Production-side pipeline (see internal/ems, internal/controller and
// internal/launch; Sec 5 of the paper).
type (
	// EMSServer simulates a vendor element management system over TCP:
	// managed-object reads/writes, carrier locking, a bounded execution
	// queue.
	EMSServer = ems.Server
	// EMSConfig tunes the EMS simulator.
	EMSConfig = ems.Config
	// EMSClient is a connection to an EMS server.
	EMSClient = ems.Client
	// EMSAssignment is one parameter assignment of a bulk write.
	EMSAssignment = ems.Assignment
	// Controller diffs recommendations against vendor configuration and
	// pushes mismatches through the EMS.
	Controller = controller.Controller
	// ControllerOptions configure a Controller (support requirement,
	// engineer validation gate).
	ControllerOptions = controller.Options
	// Change is one planned configuration change.
	Change = controller.Change
	// Outcome classifies a push: Applied, SkippedUnlocked or TimedOut.
	Outcome = controller.Outcome
	// LaunchWorkflow is the SmartLaunch pipeline for one carrier.
	LaunchWorkflow = launch.Workflow
	// LaunchRecord is the audit trail of one launch.
	LaunchRecord = launch.Record
	// LaunchSimOptions configure the Table 5 production simulation. The
	// vendor error rate (12.5% of launches) and the premature-unlock rate
	// (13% of those) are fixed, not options.
	LaunchSimOptions = launch.SimOptions
	// LaunchSimResult aggregates a simulation run.
	LaunchSimResult = launch.SimResult
	// Rand is the deterministic random stream used across the library.
	Rand = rng.RNG
)

// Push outcomes.
const (
	Applied         = controller.Applied
	SkippedUnlocked = controller.SkippedUnlocked
	TimedOut        = controller.TimedOut
)

// NewEMSServer creates an EMS simulator over a configuration store.
func NewEMSServer(schema *Schema, store *Config, cfg EMSConfig) *EMSServer {
	return ems.NewServer(schema, store, cfg)
}

// DialEMS connects to an EMS server.
func DialEMS(addr string) (*EMSClient, error) { return ems.Dial(addr) }

// NewController creates a configuration controller over an EMS session.
func NewController(schema *Schema, client *EMSClient, opts ControllerOptions) *Controller {
	return controller.New(schema, client, opts)
}

// SimulateLaunches reproduces the paper's two-month production window
// (Table 5) against the given world.
func SimulateLaunches(w *World, opts LaunchSimOptions) (LaunchSimResult, []LaunchRecord, error) {
	return launch.Simulate(w, opts)
}

// NewRand returns a deterministic random stream (used, e.g., by
// World.NewCarrierAt).
func NewRand(seed uint64) *Rand { return rng.New(seed) }
