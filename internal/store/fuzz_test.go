package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecover feeds arbitrary bytes to Open as verdicts.log.
// testdata/fuzz/FuzzStoreRecover holds the committed seeds: a valid log,
// a torn tail, a flipped CRC and a bad magic. Open must neither fail nor
// panic on any input; every value it recovers must be one the input
// frames intact (its exact frame appears in the input); and a Put on the
// recovered store must survive Close and a reopen, along with every
// recovered entry.
func FuzzStoreRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on %d bytes: %v", len(data), err)
		}
		want := map[string][]byte{}
		s.Range(func(key string, val []byte) bool {
			if !bytes.Contains(data, encodeRecord(key, val)) {
				t.Errorf("recovered %q = %q, which the input does not frame intact", key, val)
			}
			want[key] = val
			return true
		})
		const key = "fuzz|roundtrip"
		want[key] = []byte(`{"status":"equivalent"}`)
		s.Put(key, want[key])
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if s.Len() != len(want) {
			t.Errorf("reopened store holds %d entries, want %d", s.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
				t.Errorf("after reopen %q = %q (found %v), want %q", k, got, ok, v)
			}
		}
	})
}
