package main

import "fmt"

// spec freezes one workload: the deployment shape, the subscriber
// population, the event shape and the load. Every number here is part of the
// benchmark's definition; changing one invalidates recorded results.
type spec struct {
	name string
	why  string

	// shape selects the deployment: shapeFlood (GDS tree over HTTP),
	// shapeSolitary (one server, no wire) or shapeReplica (primary with WAL
	// mailboxes streaming to a standby over HTTP).
	shape int

	// Population. Profiles are numbered topic profiles first, then creator
	// profiles, then residual profiles.
	clients          int
	topicProfiles    int     // collection = … AND dc.Subject = … (doc-indexed equality)
	topics           int     // topic vocabulary
	subSkew          float64 // zipf exponent of subscribers over topics; 0 = uniform
	maxPerTopic      int     // cap on one topic's subscribers; 0 = none
	creatorProfiles  int     // dc.Creator = … AND dc.Date >= … (shared access key + second conjunct)
	creators         int     // dc.Creator access keys
	residualProfiles int     // contains / >= only: scanned on every event
	compositeEvery   int     // every k-th topic profile is COUNT 5 OF (…) WITHIN 1h; 0 = none
	classMix         bool    // realtime:normal:bulk = 1:2:1, else all normal
	qos              bool    // admission controller on (quotas never bite)
	detachedEvery    int     // every k-th client stays detached until the drain; 0 = none

	// Events.
	docs    int     // documents per event, 4 metadata fields each
	evtSkew float64 // zipf exponent of event topics; 0 = uniform

	// Load.
	pacedRate int // open-loop publish rate, events/s (about 30 % of the seed's events_per_s)
	capRate   int // sizes pre-generated sequences: events/s no phase can exceed
	loadChurn int // subscribe+unsubscribe pairs/s running beside saturate and paced
}

const (
	shapeFlood = iota
	shapeSolitary
	shapeReplica
)

// Frozen deployment constants shared by all workloads.
const (
	floodServers     = 4         // Greenstone servers in wire_flood (2 per GDS leaf)
	compositeCount   = 5         // COUNT 5 OF
	publishers       = 2         // publisher goroutines in saturate and paced
	maxChurnPairs    = 2_000_000 // per repetition: bounds the latency array; the phase's time ends it first
	tracedChurnPairs = 20_000    // a traced pair records five spans
)

var workloads = []spec{
	{
		name:          "wire_flood",
		why:           "6 synchronous XML-over-HTTP hops per publish through a 3-node GDS tree: protocol, transport and gds do nearly all the work while filter and delivery idle",
		shape:         shapeFlood,
		clients:       200,
		topicProfiles: 2000,
		topics:        2000,
		docs:          8,
		pacedRate:     150,
		capRate:       1500,
	},
	{
		name:             "match_churn",
		why:              "100k profiles on one solitary server with subscribe/unsubscribe churn beside the publishers: filter dominates and is read and written at once; no envelopes at all",
		shape:            shapeSolitary,
		clients:          1000,
		topicProfiles:    90000,
		topics:           20000,
		subSkew:          1.07,
		maxPerTopic:      40,
		creatorProfiles:  8000,
		creators:         500,
		residualProfiles: 2000,
		docs:             2,
		evtSkew:          1.07,
		pacedRate:        600,
		capRate:          6000,
		loadChurn:        200,
	},
	{
		name:           "fanout_delivery",
		why:            "hundreds of notifications per event into 256 batch sinks with QoS admission and COUNT composites on: qos, composite and delivery enqueue/WFQ/flush do the work, the matcher little",
		shape:          shapeSolitary,
		clients:        256,
		topicProfiles:  20000,
		topics:         200,
		subSkew:        1.07,
		maxPerTopic:    1000,
		compositeEvery: 20,
		classMix:       true,
		qos:            true,
		docs:           1,
		evtSkew:        0.8,
		pacedRate:      400,
		capRate:        4000,
	},
	{
		name:          "durable_replica",
		why:           "every notification costs a WAL append plus synchronous repl.wal/repl.ack round trips to a standby: the only workload where replica and the mailbox WAL dominate",
		shape:         shapeReplica,
		clients:       100,
		topicProfiles: 5000,
		topics:        1000,
		detachedEvery: 5,
		docs:          1,
		pacedRate:     100,
		capRate:       1000,
	},
}

func (sp spec) profiles() int {
	return sp.topicProfiles + sp.creatorProfiles + sp.residualProfiles
}

// scaled shrinks the population by f (for the smoke test) while keeping the
// workload's structure: every profile kind the full workload has survives.
func (sp spec) scaled(f float64) spec {
	if f >= 1 {
		return sp
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if m := int(float64(n) * f); m > floor {
			return m
		}
		return floor
	}
	sp.clients = shrink(sp.clients, 8)
	sp.topicProfiles = shrink(sp.topicProfiles, 60)
	sp.topics = shrink(sp.topics, 10)
	sp.creatorProfiles = shrink(sp.creatorProfiles, 20)
	sp.creators = shrink(sp.creators, 5)
	sp.residualProfiles = shrink(sp.residualProfiles, 30)
	if sp.topics > sp.topicProfiles {
		sp.topics = sp.topicProfiles
	}
	sp.capRate = 60_000 // small populations publish far faster
	return sp
}

func findWorkload(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
