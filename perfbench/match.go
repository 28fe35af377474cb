package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"marnet/internal/rpc"
	"marnet/internal/vision"
)

// Feature match: a CloudAR-shaped offload. The client ships the strongest
// features of a camera frame (a reference scene shifted by a known
// translation); the server matches them against the reference set and fits
// the pose with RANSAC; the answer must map the query onto its translation.
const (
	methodMatch   = 2
	matchInputs   = 64
	queryFeatures = 27 // 27 × 40 B + 8 B id = 1088 B: near-MTU under the 1200 B frame cap
	sceneW        = 640
	sceneH        = 480
	sceneRects    = 800
	refFeatures   = 256 // fixed, so every seed costs the server the same matching work
	fastThresh    = 20
	maxShift      = 24 // px, each axis
	matchMaxDist  = 64
	matchRatio    = 0.8
	poseTolerance = 3.0 // px
	respSize      = 8 + 1 + 9*8 + 2 + 2
)

type matchQuery struct {
	payload []byte            // encoded features (no id)
	truth   vision.Homography // query coords → reference coords
	probes  []vision.Point    // where the answer's pose is checked
}

type matchSet struct {
	ref     []vision.Feature
	queries []matchQuery
}

// ransacPool hands each handler invocation a generator; every call reseeds
// it with the same constant, so a query's answer is a function of the query
// alone and the set-up check below predicts what the server will answer.
var ransacPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

type poseAnswer struct {
	h                vision.Homography
	inliers, matches int
	ok               bool
}

// solvePose is the server's work, spanned when log is non-nil.
func solvePose(ref []vision.Feature, feats []byte, log *spanLog, id uint64) poseAnswer {
	t0 := time.Now()
	q, err := vision.DecodeFeatures(feats)
	t1 := time.Now()
	if err != nil {
		return poseAnswer{}
	}
	m := vision.MatchFeatures(q, ref, matchMaxDist, matchRatio)
	t2 := time.Now()
	rng := ransacPool.Get().(*rand.Rand)
	rng.Seed(1)
	res, err := vision.EstimateHomography(q, ref, m, vision.RansacConfig{}, rng)
	ransacPool.Put(rng)
	t3 := time.Now()
	if log != nil {
		parent := spanID(id, offHandler)
		log.add(spanID(id, offDecode), parent, spDecode, t0, t1)
		log.add(spanID(id, offMatch), parent, spMatch, t1, t2)
		log.add(spanID(id, offRansac), parent, spRansac, t2, t3)
	}
	if err != nil {
		return poseAnswer{matches: len(m)}
	}
	return poseAnswer{h: res.H, inliers: len(res.Inliers), matches: len(m), ok: true}
}

func poseError(h, truth vision.Homography, probes []vision.Point) float64 {
	worst := 0.0
	for _, p := range probes {
		x, y, ok := h.Apply(p.X, p.Y)
		tx, ty, _ := truth.Apply(p.X, p.Y)
		if !ok {
			return math.Inf(1)
		}
		worst = math.Max(worst, math.Hypot(x-tx, y-ty))
	}
	return worst
}

// newMatchSet builds the reference set and the queries from seed. A drawn
// translation whose query the pose pipeline cannot solve within tolerance
// is replaced by the next draw, so every input has a right answer.
func newMatchSet(seed int64) (*matchSet, error) {
	// The reference set is the refFeatures strongest described corners; a
	// scene too sparse to supply them is replaced by the next one.
	var scene *vision.Frame
	var ref []vision.Feature
	for k := int64(0); len(ref) < refFeatures; k++ {
		if k == 8 {
			return nil, fmt.Errorf("match inputs: no scene with %d reference features", refFeatures)
		}
		scene = vision.Scene(vision.SceneConfig{W: sceneW, H: sceneH, Rects: sceneRects, NoiseStd: 3}, seed+k*1_000_003)
		ref = vision.Describe(scene, strongest(vision.DetectFAST(scene, fastThresh, 0), 2*refFeatures))
	}
	ms := &matchSet{ref: ref[:refFeatures]}
	inRef := make(map[[2]int]bool, refFeatures)
	for _, f := range ms.ref {
		inRef[[2]int{f.Kp.X, f.Kp.Y}] = true
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6d61746368))
	for draws := 0; len(ms.queries) < matchInputs; draws++ {
		if draws > 8*matchInputs {
			return nil, fmt.Errorf("match inputs: only %d of %d queries solvable", len(ms.queries), matchInputs)
		}
		// Whole-pixel shifts: the warp then moves the scene without
		// resampling it, so a query's corners are the reference's own. The
		// query keeps the strongest of them whose counterpart is in the
		// reference set, so every query feature has a true match and each
		// query costs the server the same kind of work.
		dx, dy := rng.Intn(2*maxShift+1)-maxShift, rng.Intn(2*maxShift+1)-maxShift
		truth := vision.Translation(float64(dx), float64(dy))
		frame := vision.Warp(scene, truth)
		var feats []vision.Feature
		for _, f := range vision.Describe(frame, strongest(vision.DetectFAST(frame, fastThresh, 0), 2*refFeatures)) {
			if inRef[[2]int{f.Kp.X + dx, f.Kp.Y + dy}] {
				feats = append(feats, f)
			}
			if len(feats) == queryFeatures {
				break
			}
		}
		if len(feats) < queryFeatures {
			continue
		}
		q := matchQuery{payload: vision.EncodeFeatures(nil, feats), truth: truth, probes: probePoints(feats)}
		ans := solvePose(ms.ref, q.payload, nil, 0)
		if !ans.ok || poseError(ans.h, truth, q.probes) > poseTolerance {
			continue
		}
		ms.queries = append(ms.queries, q)
	}
	return ms, nil
}

// strongest keeps the n highest-response keypoints, strongest first.
func strongest(kps []vision.Keypoint, n int) []vision.Keypoint {
	sort.SliceStable(kps, func(i, j int) bool { return kps[i].Score > kps[j].Score })
	if len(kps) > n {
		kps = kps[:n]
	}
	return kps
}

// probePoints are the query features' centroid and bounding-box corners:
// the pose must be right across the region the query covers.
func probePoints(feats []vision.Feature) []vision.Point {
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	var cx, cy float64
	for _, f := range feats {
		x, y := float64(f.Kp.X), float64(f.Kp.Y)
		cx, cy = cx+x, cy+y
		minX, minY, maxX, maxY = math.Min(minX, x), math.Min(minY, y), math.Max(maxX, x), math.Max(maxY, y)
	}
	n := float64(len(feats))
	return []vision.Point{{X: cx / n, Y: cy / n}, {X: minX, Y: minY}, {X: maxX, Y: minY}, {X: minX, Y: maxY}, {X: maxX, Y: maxY}}
}

func (ms *matchSet) io() callIO {
	return callIO{
		method: methodMatch, size: 8 + queryFeatures*vision.FeatureWireBytes, inputs: len(ms.queries),
		fill: func(dst []byte, id uint64, in int) {
			putID(dst, id)
			copy(dst[8:], ms.queries[in].payload)
		},
		check: func(in int, req, resp []byte) (bool, [2]int64) {
			if len(resp) != respSize || getID(resp) != getID(req) || resp[8] != 1 {
				return false, [2]int64{}
			}
			var h vision.Homography
			for i := range h {
				h[i] = math.Float64frombits(binary.LittleEndian.Uint64(resp[9+8*i:]))
			}
			q := ms.queries[in]
			if poseError(h, q.truth, q.probes) > poseTolerance {
				return false, [2]int64{}
			}
			inl := binary.LittleEndian.Uint16(resp[9+72:])
			mt := binary.LittleEndian.Uint16(resp[9+74:])
			return true, [2]int64{int64(inl), int64(mt)}
		},
	}
}

// handler answers id | ok | H (9 × float64) | inliers | matches.
func (ms *matchSet) handler(h *harness) rpc.Handler {
	return func(method uint8, req []byte) []byte {
		log := h.spans.Load()
		t0 := time.Now()
		id := getID(req)
		var ans poseAnswer
		if len(req) > 8 {
			ans = solvePose(ms.ref, req[8:], log, id)
		}
		out := make([]byte, 9, respSize)
		putID(out, id)
		if ans.ok {
			out[8] = 1
		}
		for _, v := range ans.h {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(ans.inliers))
		out = binary.LittleEndian.AppendUint16(out, uint16(ans.matches))
		log.add(spanID(id, offHandler), spanID(id, offCall), spHandler, t0, time.Now())
		return out
	}
}
