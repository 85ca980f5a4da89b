package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// FuzzDiskEntry writes arbitrary bytes where the disk tier keeps one
// entry and loads that entry. loadDiskResult must never panic, must
// miss unless the bytes decode to an entry of this schema and this
// fingerprint, and on a hit must return exactly the result the entry
// stores. The seeds are a valid entry of a real run, the same entry
// truncated, and entries with the wrong schema and the wrong
// fingerprint.
func FuzzDiskEntry(f *testing.F) {
	defer EnableResultCache(EnableResultCache(false))
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		f.Fatal(err)
	}
	stored, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), HeteroOptions())
	if err != nil {
		f.Fatal(err)
	}
	fp := Fingerprint{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	entry := func(schema string, fp Fingerprint) []byte {
		data, err := json.Marshal(diskEntry{Schema: schema, Fingerprint: fp.String(), Result: stored})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := entry(resultSchemaHash, fp)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(entry("0000000000000000", fp))
	f.Add(entry(resultSchemaHash, Fingerprint{Hi: fp.Lo, Lo: fp.Hi}))

	defer SetResultCacheDir(SetResultCacheDir(f.TempDir()))
	path := cachePath(fp)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit := loadDiskResult(fp)
		var want diskEntry
		wantHit := json.Unmarshal(data, &want) == nil &&
			want.Schema == resultSchemaHash && want.Fingerprint == fp.String()
		if hit != wantHit {
			t.Fatalf("hit = %v for an entry of schema %q and fingerprint %q, want %v",
				hit, want.Schema, want.Fingerprint, wantHit)
		}
		if hit && got != want.Result {
			t.Fatalf("hit returned %+v, the entry stores %+v", got, want.Result)
		}
		if string(data) == string(valid) && (!hit || got != stored) {
			t.Fatal("the valid entry did not load as the stored result")
		}
	})
}
