// Command ledger is grove's performance ledger: three seeded workloads run
// against the public grove API, every answer checked, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
//
//	bash ledger/run.sh --workload ny-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A fuller report (machine,
// seed, per-op timings, failures, every metric) goes to the work directory,
// written once after the run. README.md in this directory defines the
// workloads and metrics and maps each layer to the metrics it should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// scratch returns a fresh directory for one store under the work directory.
func (c config) scratch(name string) (string, error) {
	dir := filepath.Join(c.workdir, "data", fmt.Sprintf("%s-%d-%s", c.workload, c.seed, name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	errs              []string
	e2e               map[string]float64 // every end-to-end metric the workload measured
	layers            map[string]float64 // per-layer metrics (traced run only)
	ops               map[string]summary // per-op-kind timing summaries
	notes             []string
	traces            any // raw traced spans, written once at the end
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, ops: map[string]summary{}}
}

var workloads = map[string]func(config) (*outcome, error){
	"ny-read":      runNYRead,
	"gnu-paged":    runGNUPaged,
	"ingest-mixed": runIngestMixed,
	"ingest-torn":  runIngestTorn,
}

// workloadOrder is what "all" runs. ingest-torn is left out: it fails by
// design until grove's readers see appends atomically.
var workloadOrder = []string{"ny-read", "gnu-paged", "ingest-mixed"}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ny-read, gnu-paged, ingest-mixed, ingest-torn, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same records and queries")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/ledger", "directory for stores, logs and reports")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit, recorded in the report")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "ledger: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ledger: -seconds must be positive")
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(os.Stderr, "ledger: unknown workload %q (want %s, ingest-torn or all)\n", name, strings.Join(workloadOrder, ", "))
			return 2
		}
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		if err := runOne(c); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

func runOne(cfg config) error {
	env := environment(cfg)
	fmt.Printf("ledger: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("env: cpu=%q numcpu=%d gomaxprocs=%d go=%s commit=%s\n",
		env["cpu_model"], env["num_cpu"], env["gomaxprocs"], env["go_version"], env["commit"])
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(cfg.workdir, "data")); err != nil {
		return err
	}

	kinds := make([]string, 0, len(out.ops))
	for k := range out.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("op %-8s %s\n", k, out.ops[k])
	}
	out.e2e["failed_op_ratio"] = float64(out.failed) / float64(out.attempted)
	printMetrics("e2e", out.e2e, endToEndUnits)
	if cfg.trace {
		printMetrics("layer", out.layers, layerUnits)
	}
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	for _, e := range out.errs {
		fmt.Println("failure:", e)
	}

	// The last line: end-to-end metrics untraced, per-layer metrics traced.
	final := map[string]metric{}
	if cfg.trace {
		for _, m := range perLayer {
			final[m.name] = metric{out.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			if !m.gated {
				continue
			}
			v, ok := out.e2e[m.name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", m.name)
			}
			final[m.name] = metric{v, m.unit}
		}
	}
	if err := writeReport(cfg, env, out); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, final})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(prefix string, vals map[string]float64, units map[string]string) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-34s %14.6g %s\n", prefix, n, vals[n], units[n])
	}
}

// writeReport writes the run's full report, and a traced run's spans, once
// the run is over.
func writeReport(cfg config, env map[string]any, out *outcome) error {
	base := filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace)))
	report := map[string]any{
		"env":       env,
		"attempted": out.attempted,
		"failed":    out.failed,
		"failures":  out.errs,
		"ops":       out.ops,
		"notes":     out.notes,
		"metrics":   withUnits(out.e2e, endToEndUnits),
	}
	if cfg.trace {
		report["per_layer"] = withUnits(out.layers, layerUnits)
		if err := writeJSON(base+"-spans.json", out.traces, false); err != nil {
			return err
		}
	}
	return writeJSON(base+".json", report, true)
}

func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(vals))
	for n, v := range vals {
		out[n] = metric{v, units[n]}
	}
	return out
}

func writeJSON(path string, v any, indent bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", " ")
	}
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// environment records what the numbers were measured on.
func environment(cfg config) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu_model":  model,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     cfg.commit,
	}
}
