package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArtifacts(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

var sentryBaseline = map[string]string{
	"BENCH_fleet.json": `{"name":"fleet","p50_us":26.6,"p99_us":285.1,"calls":57806}`,
	"SLO_fleet.json":   `{"classes":{"udp":{"p99_ns":285090,"min_ns":87600}}}`,
}

func TestSentryPassesOnIdenticalArtifacts(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	writeArtifacts(t, fresh, sentryBaseline)
	rep, err := RunSentry(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("identical dirs failed:\n%s", rep.Render())
	}
	if rep.Checked != 2 || len(rep.Rows) != 0 {
		t.Fatalf("checked %d files, %d rows:\n%s", rep.Checked, len(rep.Rows), rep.Render())
	}
}

func TestSentryFailsOnMetricRegression(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	regressed := map[string]string{}
	for k, v := range sentryBaseline {
		regressed[k] = v
	}
	regressed["BENCH_fleet.json"] = `{"name":"fleet","p50_us":26.6,"p99_us":399.9,"calls":57806}`
	writeArtifacts(t, fresh, regressed)
	rep, err := RunSentry(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("regression not flagged:\n%s", rep.Render())
	}
	out := rep.Render()
	// The delta table names the exact metric with a numeric delta.
	if !strings.Contains(out, "p99_us") || !strings.Contains(out, "285.1") ||
		!strings.Contains(out, "399.9") || !strings.Contains(out, "FAIL") {
		t.Fatalf("delta table unreadable:\n%s", out)
	}
	// Untouched metrics of the same file produce no rows.
	if strings.Contains(out, "p50_us") {
		t.Fatalf("unchanged metric reported:\n%s", out)
	}
}

func TestSentryMissingAndExtraFiles(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	// Fresh set drops SLO_fleet.json and adds an ungated new case.
	writeArtifacts(t, fresh, map[string]string{
		"BENCH_fleet.json": sentryBaseline["BENCH_fleet.json"],
		"BENCH_new.json":   `{"p50_us":1}`,
	})
	rep, err := RunSentry(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("missing/extra files not flagged:\n%s", rep.Render())
	}
	out := rep.Render()
	if !strings.Contains(out, "SLO_fleet.json") || !strings.Contains(out, "missing") {
		t.Fatalf("missing baseline artifact not reported:\n%s", out)
	}
	if !strings.Contains(out, "BENCH_new.json") || !strings.Contains(out, "commit a baseline") {
		t.Fatalf("ungated new artifact not reported:\n%s", out)
	}
}

// TestSentryGatesAnomalyBundles: a fresh ANOMALY bundle with no
// committed counterpart fails (a detector fired where the baseline was
// quiet), and a bundle that drifts from its committed bytes fails like
// any other virtual-time artifact.
func TestSentryGatesAnomalyBundles(t *testing.T) {
	base, fresh := t.TempDir(), t.TempDir()
	writeArtifacts(t, base, sentryBaseline)
	withBundle := map[string]string{}
	for k, v := range sentryBaseline {
		withBundle[k] = v
	}
	withBundle["ANOMALY_fleet_001_slo-burn.json"] = `{"reason":"slo-burn","at_ns":412000}`
	writeArtifacts(t, fresh, withBundle)
	rep, err := RunSentry(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Render(), "ANOMALY_fleet_001_slo-burn.json") {
		t.Fatalf("ungated fresh anomaly bundle not flagged:\n%s", rep.Render())
	}
	// Committed bundle + identical fresh bundle: clean.
	writeArtifacts(t, base, withBundle)
	rep, err = RunSentry(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("identical bundles failed:\n%s", rep.Render())
	}
	// Drifted bundle bytes: a determinism failure.
	drift := map[string]string{}
	for k, v := range withBundle {
		drift[k] = v
	}
	drift["ANOMALY_fleet_001_slo-burn.json"] = `{"reason":"slo-burn","at_ns":999000}`
	writeArtifacts(t, fresh, drift)
	rep, err = RunSentry(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Render(), "at_ns") {
		t.Fatalf("drifted bundle not flagged per-metric:\n%s", rep.Render())
	}
}

func TestSentryEmptyBaselineDirErrors(t *testing.T) {
	if _, err := RunSentry(t.TempDir(), t.TempDir()); err == nil {
		t.Fatal("empty baseline dir accepted")
	}
}

// TestSentryAgainstCommittedBaselines is CI's sentry job in process:
// run the whole seed-1 suite, write every case's BENCH_<case>.json and
// artifacts the way genesys bench does, and require the result to match
// the committed baselines/ file for file and byte for byte.
func TestSentryAgainstCommittedBaselines(t *testing.T) {
	if _, err := os.Stat("../../baselines"); err != nil {
		t.Skipf("no committed baselines: %v", err)
	}
	suite, err := RunBenchSuite(SuiteOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	for _, c := range suite.Cases {
		files := map[string]string{"BENCH_" + c.Name + ".json": string(c.Result.JSON())}
		for name, data := range c.Artifacts {
			files[name] = string(data)
		}
		writeArtifacts(t, fresh, files)
	}
	rep, err := RunSentry("../../baselines", fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("fresh suite drifted from committed baselines:\n%s", rep.Render())
	}
}
