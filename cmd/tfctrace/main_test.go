package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins the text view: as a consumer of the event stream it
// must print, byte for byte, what tfctrace printed when it owned its own
// trace callback (goldens captured from `tfctrace -proto P` at 084ad11).
func TestGolden(t *testing.T) {
	for _, proto := range []string{"tfc", "dctcp", "bfc"} {
		t.Run(proto, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", proto+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if code := run(&got, []string{"-proto", proto}); code != 0 {
				t.Fatalf("run exited %d", code)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("tfctrace -proto %s differs from testdata/%s.golden", proto, proto)
			}
		})
	}
}
