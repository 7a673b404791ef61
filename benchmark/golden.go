package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenSeeds are the seeds golden.json records. Seed 2 is held out: use
// it to confirm a claim made while working with seed 1.
var goldenSeeds = []int64{1, 2}

// golden.json maps seed → workload → SHA-256 of the workload's
// virtual-time outputs. It changes only with a deliberate model change.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string]string

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g goldenFile) digest(seed int64, w string) string {
	return g[strconv.FormatInt(seed, 10)][w]
}

// checkDigests reports, per repetition, whether its digest is wrong: it
// differs from the golden digest when one is recorded for the workload
// and seed, and from the first repetition's otherwise.
func checkDigests(digests []string, golden string) []bool {
	want := golden
	if want == "" && len(digests) > 0 {
		want = digests[0]
	}
	wrong := make([]bool, len(digests))
	for i, d := range digests {
		wrong[i] = d != want
	}
	return wrong
}

// goldenPath is golden.json relative to the repository root, where run.sh
// runs the program.
const goldenPath = "benchmark/golden.json"

// cmdGolden regenerates golden.json from one repetition of every workload
// at every golden seed. Run it only for a change that alters the model's
// virtual-time behaviour on purpose, and say so in that change.
func cmdGolden(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: golden")
		return 2
	}
	g := goldenFile{}
	for _, seed := range goldenSeeds {
		key := strconv.FormatInt(seed, 10)
		g[key] = map[string]string{}
		for _, w := range allWorkloads {
			r, err := w.prepare(seed)(nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "golden: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			if r.failed > 0 {
				fmt.Fprintf(os.Stderr, "golden: %s seed %d: %d of %d operations failed\n",
					w.name, seed, r.failed, r.attempted)
				return 1
			}
			g[key][w.name] = r.digest
			fmt.Printf("%s seed %d: %s\n", w.name, seed, r.digest)
		}
	}
	if err := writeJSON(goldenPath, g); err != nil {
		fmt.Fprintln(os.Stderr, "golden:", err)
		return 1
	}
	return 0
}
