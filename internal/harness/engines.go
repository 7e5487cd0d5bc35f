package harness

import (
	"beambench/internal/apex"
	"beambench/internal/flink"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
	"beambench/internal/spark"
	"beambench/internal/yarn"
)

// nativeExecutor builds and runs one system's native-API variant of a
// query on a fresh engine cluster. The Beam variants never come through
// here — they run through the beam runner registry (executeBeam) — so
// this table is the only place the harness touches engine APIs. The
// run's telemetry handle (nil when all telemetry is off) is threaded
// into the engine's cluster configuration, so native cells report
// per-stage throughput, spans and watermark gauges exactly like Beam
// cells do.
type nativeExecutor func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error

var nativeExecutors = map[System]nativeExecutor{
	SystemFlink: nativeFlink,
	SystemSpark: nativeSpark,
	SystemApex:  nativeApex,
}

func nativeFlink(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error {
	launch := tel.Span("harness", "cluster-launch")
	cluster, err := flink.NewCluster(flink.ClusterConfig{Costs: r.costs, Sim: sim, Telemetry: tel})
	if err != nil {
		launch.End()
		return err
	}
	cluster.Start()
	launch.End()
	defer cluster.Stop()
	env := flink.NewEnvironment(cluster).SetParallelism(setup.Parallelism)
	if err := queries.NativeFlink(env, w, setup.Query); err != nil {
		return err
	}
	_, err = env.Execute(setup.Query.String())
	return err
}

func nativeSpark(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error {
	launch := tel.Span("harness", "cluster-launch")
	cluster, err := spark.NewCluster(spark.ClusterConfig{Costs: r.costs, Sim: sim, Telemetry: tel})
	if err != nil {
		launch.End()
		return err
	}
	cluster.Start()
	launch.End()
	defer cluster.Stop()
	ssc, err := spark.NewStreamingContext(cluster, spark.Config{DefaultParallelism: setup.Parallelism})
	if err != nil {
		return err
	}
	if err := queries.NativeSpark(ssc, w, setup.Query); err != nil {
		return err
	}
	_, err = ssc.RunBounded()
	return err
}

func nativeApex(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error {
	launch := tel.Span("harness", "cluster-launch")
	cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
	if err != nil {
		launch.End()
		return err
	}
	cluster.Start()
	launch.End()
	defer cluster.Stop()
	app, err := queries.NativeApex(w, setup.Query)
	if err != nil {
		return err
	}
	stram, err := apex.Launch(cluster, app, apex.LaunchConfig{
		Parallelism: setup.Parallelism,
		Costs:       r.costs,
		Sim:         sim,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}
	_, err = stram.Await()
	return err
}
