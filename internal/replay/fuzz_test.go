package replay_test

import (
	"testing"

	"genesys/internal/replay"
)

// FuzzReplayDecode decodes arbitrary bytes as a trace file. The only
// property checked is that Decode returns: a panic fails. The seed
// corpus in testdata/fuzz holds a well-formed trace and one trace per
// rejected field.
func FuzzReplayDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		replay.Decode(b)
	})
}
