package fusion

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Artifact lineage: provenance metadata riding along with a model artifact,
// so a serving registry can answer "where did this model come from and why
// was it trained" without a side-channel database. The lifecycle controller
// stamps every candidate with the drift trigger, the traffic window that
// tripped it, and the incumbent it shadows — the audit trail the paper's
// deployment story (§2.4) assumes the surrounding TFX-style infrastructure
// provides.
//
// Wire format: lineage appends a version-2 section after the version-1
// layout, so v1 readers fail loudly on the version field rather than
// misparse, and a nil lineage writes a plain version-1 file (the fuzz corpus
// and every artifact written before this section existed stay valid):
//
//	... version-1 layout with version = 2 ...
//	lineage uint32   length n, then n bytes of JSON
//	crc     uint32   IEEE CRC-32 of the JSON bytes

// Lineage records why and from what an artifact was produced.
type Lineage struct {
	// Task is the synth task name the model was trained for (e.g. "CT1").
	Task string `json:"task,omitempty"`
	// Trigger says what caused this training run: "bootstrap" for the
	// first artifact, "drift:<channels>" for lifecycle retrains.
	Trigger string `json:"trigger,omitempty"`
	// Window is the traffic window ordinal that tripped the retrain
	// (virtual time, not wall clock — event logs replay bit-identically).
	Window int `json:"window,omitempty"`
	// Parent is the artifact path of the incumbent this model was
	// shadow-scored against; "" for a bootstrap artifact.
	Parent string `json:"parent,omitempty"`
	// Seed is the dataset seed the retraining corpus was drawn with.
	Seed int64 `json:"seed,omitempty"`
}

const artifactVersionLineage = 2

// maxLineageLen caps the lineage JSON LoadLineage will read.
const maxLineageLen = 1 << 20

// SaveLineage writes p with lineage metadata. A nil lineage writes the
// version-1 layout, which ends at the payload checksum.
func SaveLineage(w io.Writer, p Predictor, lg *Lineage) error {
	kind := Kind(p)
	if kind == "" {
		return fmt.Errorf("fusion: cannot serialize predictor of type %T", p)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		return fmt.Errorf("fusion: encode %s model: %w", kind, err)
	}
	version := uint32(artifactVersion)
	var meta []byte
	if lg != nil {
		version = artifactVersionLineage
		var err error
		if meta, err = json.Marshal(lg); err != nil {
			return fmt.Errorf("fusion: encode lineage: %w", err)
		}
		if len(meta) > maxLineageLen {
			return fmt.Errorf("fusion: lineage JSON %d bytes exceeds cap %d", len(meta), maxLineageLen)
		}
	}
	if _, err := w.Write(artifactMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, version); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(kind))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(payload.Len())); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload.Bytes())); err != nil {
		return err
	}
	if lg == nil {
		return nil
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(meta))); err != nil {
		return err
	}
	if _, err := w.Write(meta); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(meta))
}

// LoadLineage reads an artifact written by SaveLineage, verifying
// magic, version, and both checksums. Version-1 artifacts return a nil
// lineage.
func LoadLineage(r io.Reader) (Predictor, string, *Lineage, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact magic: %w", err)
	}
	if magic != artifactMagic {
		// Never echo the bytes: a reload request names any readable file.
		return nil, "", nil, errors.New("fusion: not an artifact (bad magic)")
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact version: %w", err)
	}
	if version != artifactVersion && version != artifactVersionLineage {
		return nil, "", nil, fmt.Errorf("fusion: artifact version %d, want %d or %d",
			version, artifactVersion, artifactVersionLineage)
	}
	var kindLen uint32
	if err := binary.Read(r, binary.LittleEndian, &kindLen); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact kind: %w", err)
	}
	if kindLen == 0 || kindLen > maxKindLen {
		return nil, "", nil, fmt.Errorf("fusion: implausible artifact kind length %d", kindLen)
	}
	kindBytes := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kindBytes); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact kind: %w", err)
	}
	kind := string(kindBytes)
	switch kind {
	case KindEarly, KindIntermediate, KindDeViSE:
	default:
		// Reject before touching the payload: a garbage kind means a
		// garbage payload length too.
		return nil, "", nil, fmt.Errorf("fusion: unknown artifact kind %q", kind)
	}
	var payloadLen uint64
	if err := binary.Read(r, binary.LittleEndian, &payloadLen); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact payload length: %w", err)
	}
	if payloadLen == 0 || payloadLen > maxArtifactSection {
		return nil, "", nil, fmt.Errorf("fusion: implausible artifact payload length %d", payloadLen)
	}
	// Copy progressively instead of allocating payloadLen up front: a
	// truncated stream whose header lies about its length then costs only
	// the bytes actually present.
	var payloadBuf bytes.Buffer
	if n, err := io.CopyN(&payloadBuf, r, int64(payloadLen)); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact payload (%d of %d bytes): %w", n, payloadLen, err)
	}
	payload := payloadBuf.Bytes()
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, "", nil, fmt.Errorf("fusion: read artifact checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, "", nil, fmt.Errorf("fusion: artifact checksum mismatch: payload %08x, header %08x", got, sum)
	}

	var lg *Lineage
	if version == artifactVersionLineage {
		var metaLen uint32
		if err := binary.Read(r, binary.LittleEndian, &metaLen); err != nil {
			return nil, "", nil, fmt.Errorf("fusion: read lineage length: %w", err)
		}
		if metaLen == 0 || metaLen > maxLineageLen {
			return nil, "", nil, fmt.Errorf("fusion: implausible lineage length %d", metaLen)
		}
		meta := make([]byte, metaLen)
		if _, err := io.ReadFull(r, meta); err != nil {
			return nil, "", nil, fmt.Errorf("fusion: read lineage: %w", err)
		}
		var metaSum uint32
		if err := binary.Read(r, binary.LittleEndian, &metaSum); err != nil {
			return nil, "", nil, fmt.Errorf("fusion: read lineage checksum: %w", err)
		}
		if got := crc32.ChecksumIEEE(meta); got != metaSum {
			return nil, "", nil, fmt.Errorf("fusion: lineage checksum mismatch: payload %08x, header %08x", got, metaSum)
		}
		lg = &Lineage{}
		if err := json.Unmarshal(meta, lg); err != nil {
			return nil, "", nil, fmt.Errorf("fusion: decode lineage: %w", err)
		}
	}

	dec := gob.NewDecoder(bytes.NewReader(payload))
	var p Predictor
	switch kind {
	case KindEarly:
		m := &EarlyModel{}
		if err := dec.Decode(m); err != nil {
			return nil, "", nil, err
		}
		p = m
	case KindIntermediate:
		m := &IntermediateModel{}
		if err := dec.Decode(m); err != nil {
			return nil, "", nil, err
		}
		p = m
	case KindDeViSE:
		m := &DeViSEModel{}
		if err := dec.Decode(m); err != nil {
			return nil, "", nil, err
		}
		p = m
	}
	return p, kind, lg, nil
}

// SaveFileLineage writes p with lineage to path atomically: a temp file in
// the same directory is renamed over path only after a successful write, so
// a crashed save never leaves a serving process able to load half an
// artifact.
func SaveFileLineage(path string, p Predictor, lg *Lineage) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".artifact-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = SaveLineage(f, p, lg); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFileLineage reads an artifact plus lineage from path, which must name a
// regular file. The open does not block (a FIFO without a writer would hold
// it forever), and the check reads the opened file, not the path, so nothing
// can be swapped in between.
func LoadFileLineage(path string) (Predictor, string, *Lineage, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, "", nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, "", nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, "", nil, fmt.Errorf("fusion: %s is not a regular file (%s)", path, fi.Mode().Type())
	}
	return LoadLineage(f)
}
