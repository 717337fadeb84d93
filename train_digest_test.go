package dssddi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dssddi/internal/mat"
)

// trainDigest is the SHA-256 of the saved snapshot of the small system
// TestTrainSnapshotDigestPinned trains. Every SIMD level and worker
// count must reproduce it: a kernel change that moves one bit of one
// trained weight moves the digest.
const trainDigest = "3eefcf865f509e71a5926cc6a7e5729247ee04bda43adecc0ab9e2f9137b277e"

// TestTrainSnapshotDigestPinned pins the trained weights end to end:
// training (DDI + MD, every matmul and its gradients) followed by Save
// must produce byte-identical snapshots at workers 1 and 3. Hidden 36
// gives the decoder a 37-wide layer-1 input, so the transposed
// gradient matmuls see odd row, column and K%4 tails.
func TestTrainSnapshotDigestPinned(t *testing.T) {
	defer mat.SetWorkers(0)
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DDIEpochs = 5
			cfg.MDEpochs = 5
			cfg.Hidden = 36
			cfg.Workers = workers
			sys := New(cfg)
			if err := sys.Train(GenerateChronic(1, 60, 50)); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sys.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != trainDigest {
				t.Fatalf("snapshot SHA-256 at SIMD %s, workers %d = %s, want %s", mat.SIMD(), workers, got, trainDigest)
			}
		})
	}
}
