package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
	"github.com/sieve-db/sieve/internal/workload"
)

// streamLimit is how many rows a stream op pulls before it Closes early.
const streamLimit = 8

// opKind is one op shape. kWrite and kRAW exist on scale_churn only: a
// write is always followed by one read-after-write by a member of the
// group it touched.
type opKind uint8

const (
	kStream opKind = iota
	kExhaust
	kPrepared
	kWrite
	kRAW
	numKinds
)

var kindNames = [numKinds]string{"stream", "exhaust", "prepared", "write", "read_after_write"}

// checkMode says how far a query's result can be verified against the
// policies.
type checkMode uint8

const (
	checkNone   checkMode = iota // aggregates, projections, joins: default-deny only
	checkFull                    // SELECT * over the relation: the exact row set
	checkSubset                  // the same under LIMIT: membership and count
)

type query struct {
	name  string
	sql   string
	check checkMode
	// rawSQL is sql without its LIMIT (== sql for checkFull); run
	// unprotected it gives the rows the policies then filter.
	rawSQL string
	limit  int
	// kinds is the set of op kinds that may run this query, as a bitmask
	// over opKind.
	kinds uint8
}

// op is one entry of the op sequence.
type op struct {
	kind    opKind
	querier int32
	query   int32
}

// sizes are the generator configurations of one benchmark scale. The full
// values are written out here, not taken from internal/experiment, so a
// change there cannot change what is measured.
type sizes struct {
	// full marks the sizes the recorded fingerprints belong to.
	full            bool
	campus          workload.CampusConfig
	campusPolicy    workload.PolicyConfig
	hospital        workload.HospitalConfig
	mall            workload.MallConfig
	mallPerCustomer int
	scale           workload.ScaleConfig
	topQueriers     int
	// warmOps is how many warm-up ops (see opAt) run untimed before the
	// measured part starts.
	warmOps int
}

// corpusSeed seeds the data, policy and query generators. It is fixed:
// between two corpora a median op moves by 30–60% (queriers hold other policy
// sets, queries hit other windows), which no regression bound can absorb, so
// --seed varies what is drawn on top of one corpus — op kinds, queriers,
// queries, churn targets, and their order.
const corpusSeed = 1

func fullSizes() sizes {
	return sizes{
		full:         true,
		campus:       workload.CampusConfig{Devices: 1500, APs: 64, Days: 45, EventsPerResidentDay: 8, GroupCount: 56},
		campusPolicy: workload.PolicyConfig{AdvancedPolicies: 30, PopularQueriers: 10, PopularBias: 0.5},
		hospital:     workload.HospitalConfig{Patients: 1200, Departments: 8, WardsPerDept: 5, StaffPerWard: 8, Days: 30, ReadingsPerPatientDay: 5},
		mall:         workload.MallConfig{Customers: 1200, Shops: 35, Days: 30, VisitsPerCustomerDay: 5},
		// 4, not the 8 of internal/experiment's medium scale: at 8 an op is
		// 25–110 ms of engine time and a 20 s run gets 940 ops, too few for
		// the open loop's 200 per rate; at 4 it gets 1 500, with result sizes
		// unchanged.
		mallPerCustomer: 4,
		scale:           workload.ScaleConfig{Queriers: 2000, Groups: 50, Policies: 20000, Owners: 500, ZipfS: 1.2, Rows: 512, APs: 32},
		topQueriers:     24,
		warmOps:         32,
	}
}

// tinySizes keeps every code path of the full run but finishes in well
// under a second; bench_test.go uses it.
func tinySizes() sizes {
	return sizes{
		campus:          workload.CampusConfig{Devices: 160, APs: 8, Days: 6, EventsPerResidentDay: 4, GroupCount: 4},
		campusPolicy:    workload.PolicyConfig{AdvancedPolicies: 6, PopularQueriers: 4, PopularBias: 0.5},
		hospital:        workload.HospitalConfig{Patients: 60, Departments: 2, WardsPerDept: 2, StaffPerWard: 3, Days: 4, ReadingsPerPatientDay: 3},
		mall:            workload.MallConfig{Customers: 80, Shops: 6, Days: 5, VisitsPerCustomerDay: 3},
		mallPerCustomer: 4,
		scale:           workload.ScaleConfig{Queriers: 60, Groups: 6, Policies: 300, Owners: 40, ZipfS: 1.2, Rows: 128, APs: 8},
		topQueriers:     6,
		warmOps:         8,
	}
}

// env is one workload's generated inputs plus the system under test built
// over them.
type env struct {
	name     string
	seed     int64 // drives the op sequence (see corpusSeed for the data)
	sz       sizes
	m        *core.Middleware
	relation string
	purpose  string
	schema   *storage.Schema
	groups   policy.Groups
	policies []*policy.Policy
	queriers []string
	deny     []string
	queries  []query
	stmts    []*core.Stmt // per query, in-process prepared statements
	// prepareUS and coldUS are timings set-up takes in passing for the
	// traced run: Middleware.Prepare per query, and each querier's first
	// rewrite (no claim yet, so it resolves policies and may generate).
	prepareUS []float64
	coldUS    []float64

	// mix is the share of stream, exhaust, prepared and write ops. shapes
	// are the (kind, query) pairs an op can be, with shapeCDF their
	// cumulative probabilities; querierCDF is the same over queriers.
	mix        [4]float64
	shapes     []op
	shapeCDF   []float64
	querierCDF []float64
	prepared   []int32 // the queries some op runs prepared

	deckMu sync.Mutex
	decks  map[int]*[deckSize]op

	// scale_churn; groupOf[i] is queriers[i]'s group, byGroup lists the
	// queriers' indices sorted by group, and groupStart[k] is where the k-th
	// non-empty group's members start in it (with a closing entry). zipfWrites
	// selects the law a write's group is drawn by (see deal).
	corpus      *workload.ScaleCorpus
	groupOf     []int
	byGroup     []int32
	groupStart  []int32
	zipfWrites  bool
	walMgr      *wal.Manager
	walDir      string
	churnOwners []int64
	ownerQuery  map[int64]int32 // churn owner → its prepared point query
	checker     *loadgen.Checker
	// checkAs names, per querier, the member of its group the checker
	// holds a view for.
	checkAs []string

	// mall_wire
	srv      *server.Server
	baseURL  string
	srvDone  chan error
	listener net.Listener
}

// close releases what build started: the server, the WAL and its directory.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx)
		cancel()
		<-e.srvDone
	}
	if e.walMgr != nil {
		_ = e.walMgr.Close()
		_ = os.RemoveAll(e.walDir)
	}
}

// zipfCDF is the cumulative distribution of n items ranked by a Zipf law of
// exponent s (weight of rank k is (k+1)^-s, rand.NewZipf's law with v=1);
// s = 0 is uniform.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opRand is a splitmix64 stream.
type opRand struct{ s uint64 }

func (r *opRand) next() float64 {
	r.s = mix64(r.s)
	return float64(r.s>>11) / (1 << 53)
}

// The op sequence is dealt in decks of deckSize ops. A deck is a Fibonacci
// lattice — point j sits at (j/deckSize, j·deckStep mod deckSize / deckSize),
// the rank-1 lattice with the lowest two-dimensional discrepancy — shifted
// on the torus by a random offset and then shuffled. A point's first
// coordinate picks the (kind, query) shape and its second the querier, so
// every deck holds each shape and each querier within one op of its expected
// count, and each (shape, querier) region close to its share: two runs, or
// two seeds, execute the same mixture in another order. With independent
// draws, the luck of how many slow shapes and heavy queriers a run met moved
// its medians by 10–30% between seeds.
const (
	deckSize = 377 // F(14)
	deckStep = 233 // F(13)
)

func frac(x float64) float64 { return x - math.Floor(x) }

// pick returns the index of the CDF interval u falls in.
func pick(cdf []float64, u float64) int32 {
	k := sort.SearchFloat64s(cdf, u)
	if k < len(cdf) && cdf[k] == u {
		k++
	}
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return int32(k)
}

// opAt is the i-th op of the workload's sequence for this seed: position
// i%deckSize of deck i/deckSize. The ops before index 0 are the warm-up; they
// are the same for every seed, so that setup_s does not depend on how many
// slow ops a seed happens to open with.
func (e *env) opAt(i int) op {
	b, j := i/deckSize, i%deckSize
	if i < 0 {
		b, j = -1, (j+deckSize)%deckSize
	}
	e.deckMu.Lock()
	d := e.decks[b]
	if d == nil {
		d = e.deal(b)
		e.decks[b] = d
	}
	e.deckMu.Unlock()
	return d[j]
}

func (e *env) deal(b int) *[deckSize]op {
	r := opRand{mix64(uint64(e.seed)*0x100000001b3 + uint64(b))}
	if b < 0 {
		r = opRand{} // the warm-up deck
	}
	o1, o2 := r.next(), r.next()
	d := new([deckSize]op)
	for j := range d {
		o := e.shapes[pick(e.shapeCDF, frac(float64(j)/deckSize+o1))]
		u := frac(float64(j*deckStep%deckSize)/deckSize + o2)
		if o.kind != kWrite {
			o.querier = pick(e.querierCDF, u)
		} else {
			// A write lands on a group and is attributed to one of its
			// members, who does the read after it. The group is drawn
			// uniformly — every group's owner edits its grants at the same
			// rate, however many members read under them — or, with
			// zipfWrites, by its share of the population, the Zipf law the
			// generator filled the groups by: the largest group, whose
			// guard is the dearest to regenerate, then takes three writes
			// in ten (see setWriteLaw for why both exist).
			k := int(u * float64(len(e.byGroup)))
			if !e.zipfWrites {
				g := int(u * float64(len(e.groupStart)-1))
				k = int(e.groupStart[g]) + int(r.next()*float64(e.groupStart[g+1]-e.groupStart[g]))
			}
			o.querier = e.byGroup[k]
			o.query = int32(r.next() * float64(len(e.churnOwners)))
		}
		d[j] = o
	}
	for j := deckSize - 1; j > 0; j-- {
		m := int(r.next() * float64(j+1))
		d[j], d[m] = d[m], d[j]
	}
	return d
}

// setWriteLaw switches how scale_churn draws a write's group and deals the
// decks again. The measured run draws it uniformly. Drawn by population, as
// the issue sketched, a third of the writes hit the largest group, whose every
// regeneration holds the middleware's lock for 0.1–1.3 s with the other client
// waiting behind it: thirty such stalls are two fifths of a 20 s run, and over
// six seeds ops_per_s spread by 32% of its median, op_p95_us by 24% and the
// p99 by 64% — no bound could hold them. So that law gets a phase of its own
// in the traced run, reported as churn_zipf.*, where nothing is gated.
func (e *env) setWriteLaw(zipf bool) {
	e.deckMu.Lock()
	e.zipfWrites = zipf
	e.decks = make(map[int]*[deckSize]op)
	e.deckMu.Unlock()
}

// setShapes lays out the op distribution: a kind by the mix, a query among
// those whose kind mask admits it by a Zipf law over their rank (queryZipf 0
// draws uniformly), and a querier by querierCDF.
func (e *env) setShapes(querierCDF []float64, queryZipf float64) {
	e.decks = make(map[int]*[deckSize]op)
	e.querierCDF = querierCDF
	cum := 0.0
	for k, share := range e.mix {
		kind := opKind(k)
		if share == 0 {
			continue
		}
		if kind == kWrite {
			cum += share
			e.shapes = append(e.shapes, op{kind: kWrite})
			e.shapeCDF = append(e.shapeCDF, cum)
			continue
		}
		var eligible []int32
		for qi, q := range e.queries {
			if q.kinds&(1<<kind) != 0 {
				eligible = append(eligible, int32(qi))
			}
		}
		if kind == kPrepared {
			e.prepared = eligible
		}
		prev := 0.0
		for rank, c := range zipfCDF(len(eligible), queryZipf) {
			cum += share * (c - prev)
			prev = c
			e.shapes = append(e.shapes, op{kind: kind, query: eligible[rank]})
			e.shapeCDF = append(e.shapeCDF, cum)
		}
	}
}

const readKinds = 1<<kStream | 1<<kExhaust | 1<<kPrepared

// classify turns a corpus entry into a benchmark query: SELECT * over the
// protected relation is row-checkable and worth streaming; anything else
// runs as exhaust or prepared only.
func classify(nq workload.NamedQuery, relation string) query {
	q := query{name: nq.Name, sql: nq.SQL, rawSQL: nq.SQL, kinds: 1<<kExhaust | 1<<kPrepared}
	if !strings.HasPrefix(nq.SQL, "SELECT * FROM "+relation) {
		return q
	}
	q.kinds = readKinds
	q.check = checkFull
	if i := strings.LastIndex(nq.SQL, " LIMIT "); i >= 0 {
		if n, err := strconv.Atoi(strings.TrimSpace(nq.SQL[i+len(" LIMIT "):])); err == nil {
			q.check, q.rawSQL, q.limit = checkSubset, nq.SQL[:i], n
		} else {
			q.check = checkNone
		}
	}
	return q
}

// classifyAll turns a generator's corpus into the benchmark's queries, in the
// generator's order: that order is the popularity rank (see trafficZipf).
func classifyAll(corpus []workload.NamedQuery, relation string) []query {
	out := make([]query, len(corpus))
	for i, nq := range corpus {
		out[i] = classify(nq, relation)
	}
	return out
}

// trafficZipf is the skew both the querier and the query of an op are drawn
// with, over the generator's own order of each: the traffic model the repo
// already has (sieve-bench -run traffic, internal/loadgen), kept so that the
// benchmark adds no popularity ranking of its own.
const trafficZipf = 1.3

var denyQueriers = []string{"intruder:1", "intruder:2"}

// build generates the workload's inputs from the seed and stands the system
// up over them: data, policies, Protect, and (per workload) the WAL or the
// loopback server. Warm-up is separate (see warm) but belongs to set-up too.
func build(name string, seed int64, sz sizes, outDir string) (*env, error) {
	e := &env{name: name, seed: seed, sz: sz, deny: denyQueriers}
	var err error
	switch name {
	case wlCampus:
		err = e.buildCampus()
	case wlHospital:
		err = e.buildHospital()
	case wlMall:
		err = e.buildMall()
	case wlChurn:
		err = e.buildChurn(outDir)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	e.stmts = make([]*core.Stmt, len(e.queries))
	for i, q := range e.queries {
		t0 := time.Now()
		if e.stmts[i], err = e.m.Prepare(q.sql); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: prepare %s: %w", name, q.name, err)
		}
		e.prepareUS = append(e.prepareUS, us(time.Since(t0)))
	}
	return e, nil
}

// protect loads the policies and puts the middleware in front of relation.
func (e *env) protect(db *engine.DB, ps []*policy.Policy, relation string, groups policy.Groups) error {
	store, err := policy.NewStore(db)
	if err != nil {
		return err
	}
	if err := store.BulkLoad(ps); err != nil {
		return err
	}
	m, err := core.New(store, core.WithGroups(groups))
	if err != nil {
		return err
	}
	if err := m.Protect(relation); err != nil {
		return err
	}
	e.m, e.policies, e.relation, e.groups = m, ps, relation, groups
	e.schema = db.MustTable(relation).Schema
	return nil
}

func (e *env) buildCampus() error {
	cfg := e.sz.campus
	cfg.Seed = corpusSeed
	c, err := workload.BuildCampus(cfg, engine.MySQL())
	if err != nil {
		return err
	}
	pcfg := e.sz.campusPolicy
	pcfg.Seed = corpusSeed + 1
	ps := c.GeneratePolicies(pcfg)
	if err := e.protect(c.DB, ps, workload.TableWiFi, c.Groups()); err != nil {
		return err
	}
	e.purpose = "analytics"
	e.queriers = workload.TopQueriers(ps, e.sz.topQueriers, 1)
	e.queries = classifyAll(c.CorpusQueries(), e.relation)
	e.mix = [4]float64{0.50, 0.25, 0.25, 0}
	e.setShapes(zipfCDF(len(e.queriers), trafficZipf), trafficZipf)
	return nil
}

// The audit cohort of hospital_scan. The generator's staff hold narrow grants
// (a ward by day, an attending's patients), for which the cost model always
// picks IndexGuards: with staff alone no op reaches the sequential scan, and
// zone-map and owner-dictionary pruning, the vector programs and the
// parallel fan-out would run on no workload. So the earliest-admitted
// cohortFrac of the patients also grant a records-audit group, whose members
// take cohortShare of the ops. Patient ids follow admission order and rows
// are stored by patient, so the cohort is a run of whole segments: the guarded
// scan over it prunes the rest.
const (
	cohortGroup   = "audit:cohort"
	cohortFrac    = 0.1
	cohortShare   = 0.2
	cohortMembers = 4
)

// cohortGroups adds the audit cohort's members to the hospital's closure.
type cohortGroups struct {
	staff   policy.Groups
	members map[string]bool
}

func (g cohortGroups) GroupsOf(member string) []string {
	if g.members[member] {
		return []string{cohortGroup}
	}
	return g.staff.GroupsOf(member)
}

func (e *env) buildHospital() error {
	cfg := e.sz.hospital
	cfg.Seed = corpusSeed + 3
	h, err := workload.BuildHospital(cfg, engine.MySQL())
	if err != nil {
		return err
	}
	ps := h.GeneratePolicies(cfg.Seed + 1)
	e.purpose = "treatment"
	for _, p := range h.Patients[:int(cohortFrac*float64(len(h.Patients)))] {
		ps = append(ps, &policy.Policy{
			Owner: p.ID, Querier: cohortGroup, Purpose: e.purpose,
			Relation: workload.TableVitals, Action: policy.Allow,
		})
	}
	groups := cohortGroups{staff: h.Groups(), members: make(map[string]bool)}
	// Staff queriers, not group principals: every access resolves through
	// the hospital → department → ward → role closure.
	for _, s := range h.Staff {
		e.queriers = append(e.queriers, s.Querier())
	}
	querierCDF := zipfCDF(len(h.Staff), trafficZipf)
	for i := range querierCDF {
		querierCDF[i] *= 1 - cohortShare
	}
	for k := 1; k <= cohortMembers; k++ {
		name := fmt.Sprintf("auditor:%d", k)
		groups.members[name] = true
		e.queriers = append(e.queriers, name)
		querierCDF = append(querierCDF, 1-cohortShare+cohortShare*float64(k)/cohortMembers)
	}
	if err := e.protect(h.DB, ps, workload.TableVitals, groups); err != nil {
		return err
	}
	e.queries = classifyAll(h.CorpusQueries(), e.relation)
	// Both materialising kinds take the same scan paths; the stream share
	// times the first rows of the same scans.
	e.mix = [4]float64{0.20, 0.40, 0.40, 0}
	e.setShapes(querierCDF, trafficZipf)
	return nil
}

func (e *env) buildMall() error {
	cfg := e.sz.mall
	cfg.Seed = corpusSeed + 2
	ml, err := workload.BuildMall(cfg, engine.MySQL())
	if err != nil {
		return err
	}
	ps := ml.GeneratePolicies(cfg.Seed+1, e.sz.mallPerCustomer)
	if err := e.protect(ml.DB, ps, workload.TableMallWiFi, policy.NoGroups); err != nil {
		return err
	}
	e.purpose = "marketing"
	e.queriers = workload.TopQueriers(ps, e.sz.topQueriers, 1)
	e.queries = classifyAll(ml.CorpusQueries(), e.relation)
	e.mix = [4]float64{0.40, 0.40, 0.20, 0}
	e.setShapes(zipfCDF(len(e.queriers), trafficZipf), trafficZipf)

	e.srv, err = server.New(server.Config{Middleware: e.m, AllowDemoTokens: true})
	if err != nil {
		return err
	}
	e.listener, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv = nil
		return err
	}
	e.srvDone = make(chan error, 1)
	go func() { e.srvDone <- e.srv.Serve(e.listener) }()
	e.baseURL = "http://" + e.listener.Addr().String()
	return nil
}

// churnOwnerPool is how many owners policy writes (and the prepared point
// reads) draw from: each is one placeholder-free prepared statement, whose
// plan cache holds one rewritten plan per policy signature.
const churnOwnerPool = 4

func (e *env) buildChurn(outDir string) error {
	cfg := e.sz.scale
	cfg.Seed = corpusSeed + 6
	corpus := workload.BuildScaleCorpus(cfg)
	db, err := corpus.BuildScaleDB(engine.MySQL())
	if err != nil {
		return err
	}
	if err := e.protect(db, corpus.Policies, workload.TableTelemetry, corpus.Groups()); err != nil {
		return err
	}
	e.corpus = corpus
	e.purpose = "analytics"
	e.queriers, e.groupOf = corpus.Queriers, corpus.GroupOf
	// Sorted by group: a deck's second coordinate then sweeps the groups,
	// so every deck gives each group its share of the writes.
	e.byGroup = make([]int32, len(e.queriers))
	for i := range e.byGroup {
		e.byGroup[i] = int32(i)
	}
	sort.SliceStable(e.byGroup, func(a, b int) bool { return e.groupOf[e.byGroup[a]] < e.groupOf[e.byGroup[b]] })
	for k, i := range e.byGroup {
		if k == 0 || e.groupOf[i] != e.groupOf[e.byGroup[k-1]] {
			e.groupStart = append(e.groupStart, int32(k))
		}
	}
	e.groupStart = append(e.groupStart, int32(len(e.byGroup)))

	// Selective shapes only: a bare SELECT * over the two largest groups'
	// guards costs 50–200 ms of engine time per op, which would turn this
	// into a second engine workload.
	e.ownerQuery = make(map[int64]int32)
	for k := 0; k < churnOwnerPool; k++ {
		owner := int64(k * cfg.Owners / churnOwnerPool)
		e.churnOwners = append(e.churnOwners, owner)
		e.ownerQuery[owner] = int32(len(e.queries))
		sql := fmt.Sprintf("SELECT * FROM %s WHERE owner = %d", e.relation, owner)
		e.queries = append(e.queries, query{name: fmt.Sprintf("owner_%d", owner), sql: sql, rawSQL: sql, check: checkFull, kinds: 1 << kPrepared})
	}
	for ap := 0; ap < cfg.APs; ap++ {
		sql := fmt.Sprintf("SELECT * FROM %s WHERE ap = %d", e.relation, ap)
		e.queries = append(e.queries, query{name: fmt.Sprintf("ap_%d", ap), sql: sql, rawSQL: sql, check: checkFull, kinds: 1 << kExhaust})
	}
	for h := 8; h < 18; h++ {
		sql := fmt.Sprintf("SELECT * FROM %s WHERE ts_time BETWEEN TIME '%02d:00' AND TIME '%02d:00'", e.relation, h, h+1)
		e.queries = append(e.queries, query{name: fmt.Sprintf("hour_%d", h), sql: sql, rawSQL: sql, check: checkFull, kinds: 1 << kStream})
	}
	// 90% plain reads (half prepared, a quarter each of the two predicate
	// shapes) and 10% writes, each followed by its read-after-write. Readers
	// are drawn uniformly from the population, which the generator already
	// spread over the groups by a Zipf law: a third of them sit in the largest
	// group. A second Zipf over the members' numbers would make one arbitrary
	// member, sq:00000, a quarter of the reads; it happens to sit in the
	// largest group, which put every per-kind median on the edge between that
	// group's 16 ms reads and everyone else's (exhaust_p50_us spread by 28%
	// of its median over ten seeds). The shapes within a kind have no order
	// and are drawn uniformly too.
	e.mix = [4]float64{0.225, 0.225, 0.45, 0.10}
	e.setShapes(zipfCDF(len(e.queriers), 0), 0)

	// Flush policy "never": a sandbox fsync is not a device's, and
	// BENCH_recovery.json keeps the fsync numbers. Automatic checkpoints
	// are off so no snapshot lands inside a run.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if e.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
		return err
	}
	mgr, err := wal.Open(e.walDir, wal.Options{
		Sync: wal.SyncNever, CheckpointEvery: -1, SkipTables: workload.GuardSkipTables(),
	})
	if err != nil {
		return err
	}
	e.walMgr = mgr
	if err := mgr.Start(db, e.m.ProtectedRelations); err != nil {
		return err
	}
	db.SetWAL(mgr)
	e.m.Store().SetDurability(mgr)
	e.m.SetDurability(mgr)
	return nil
}

// newChecker builds the two-legal-worlds checker scale_churn holds every
// row to. It belongs to the benchmark, not to the system's set-up. Every
// policy of this corpus, and every churn grant, names a group, so the
// members of a group have one justification context: the checker compiles a
// view for the first member of each group only (a view per querier is 3 GiB
// of compiled policy sets) and every row is checked as that member.
func (e *env) newChecker() error {
	firstOf := make(map[int]string)
	var reps []string
	e.checkAs = make([]string, len(e.queriers))
	for i, name := range e.queriers {
		g := e.groupOf[i]
		if _, ok := firstOf[g]; !ok {
			firstOf[g] = name
			reps = append(reps, name)
		}
		e.checkAs[i] = firstOf[g]
	}
	ck, err := loadgen.NewChecker(&loadgen.Scenario{
		Name: e.name, M: e.m, Relation: e.relation, Schema: e.schema, Purpose: e.purpose,
		Queriers: reps, DenyQueriers: e.deny, Groups: e.groups, BasePolicies: e.policies,
	}, 10)
	e.checker = ck
	return err
}

// warm fills the caches a long-running deployment has full: one guard claim
// per querier and one prepared plan per (statement, policy signature). It
// runs no query; the warmOps warm-up ops do that, untimed.
func (e *env) warm() error {
	seenGroup := make(map[int]bool)
	for qi, name := range e.queriers {
		sess := e.m.NewSession(policy.Metadata{Querier: name, Purpose: e.purpose})
		stmts := e.stmts
		if e.corpus != nil {
			// Every member of a group shares one signature: one member
			// fills the group's plans, the rest only bind their claim.
			if g := e.groupOf[qi]; seenGroup[g] {
				stmts = stmts[:1]
			} else {
				seenGroup[g] = true
				stmts = stmts[:churnOwnerPool]
			}
		}
		for i, st := range stmts {
			t0 := time.Now()
			if _, err := st.Report(sess); err != nil {
				return fmt.Errorf("warm %s: %w", name, err)
			}
			if i == 0 {
				e.coldUS = append(e.coldUS, us(time.Since(t0)))
			}
		}
	}
	return nil
}

// fingerprint hashes what the seed generated — the protected relation's
// rows, the policy corpus, and the head of the op sequence — so a change to
// internal/workload that silently alters the inputs is caught.
func (e *env) fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	e.m.DB().MustTable(e.relation).Scan(func(_ storage.RowID, r storage.Row) bool {
		word(hashRow(r))
		return true
	})
	for _, p := range e.policies {
		h.Write([]byte(p.String()))
	}
	for _, q := range e.queries {
		h.Write([]byte(q.sql))
	}
	for _, q := range e.queriers {
		h.Write([]byte(q))
	}
	for i := 0; i < 4096; i++ {
		o := e.opAt(i)
		word(uint64(o.kind)<<48 | uint64(o.querier)<<24 | uint64(o.query))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hashRow is FNV-1a over a row's values; the oracle sums row hashes into a
// multiset hash, so results compare without regard to order.
func hashRow(r storage.Row) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mixIn := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * prime
			x >>= 8
		}
	}
	for _, v := range r {
		mixIn(uint64(v.K))
		mixIn(uint64(v.I))
		mixIn(math.Float64bits(v.F))
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * prime
		}
	}
	return h
}
