// Package securecloud is a from-scratch Go reproduction of "SecureCloud:
// Secure Big Data Processing in Untrusted Clouds" (Kelbert et al.,
// DATE 2017): a layered platform for running big data applications as
// attested micro-services inside (simulated) Intel SGX enclaves on
// untrusted cloud infrastructure.
//
// The library lives under internal/ in bottom-up layers:
//
//   - sim, cryptbox, enclave, attest — the substrates: deterministic cycle
//     accounting, authenticated encryption, a cycle-cost SGX v1 simulator
//     (EPC paging, MEE, lifecycle, measurement, sealing) and remote
//     attestation.
//   - fsshield, shield, sconert, image, registry, container — the SCONE
//     secure-container layer: protected file systems, shielded syscalls,
//     the SCF/CAS startup protocol, and the secure Docker workflow.
//   - eventbus, microsvc, scbr — the micro-service and messaging layer:
//     the sealed event bus, attested micro-service replica sets
//     (microsvc.ReplicaSet, the one serve path) and the SCBR content-based
//     router whose EPC-paging behaviour is the paper's Figure 3.
//   - kvstore, mapreduce, genpack, smartgrid — the big data layer: secure
//     structured storage, secure map/reduce, the GenPack generational
//     scheduler (the 23% energy claim) and the smart-grid use cases.
//   - core — the top-level platform API gluing cloud and owner sides.
//
// The benchmarks in bench_test.go regenerate every quantitative statement
// of the paper; see EXPERIMENTS.md for paper-vs-measured results.
//
// # Cost model & performance
//
// All simulated costs flow through one hot path: enclave.Memory.Access
// walks the cache lines of an access, consulting the shared LLC and EPC
// models, and charges cycles into a sim.Counter ledger while advancing the
// platform's sim.Clock. That path is engineered so the simulator's own
// overhead stays far below the costs it models:
//
//   - Typed causes. Accounting categories ("llc-hit", "epc-fault", ...)
//     are interned once as sim.Cause values — small integers indexing a
//     fixed-size array ledger in sim.Counter. Charging is an array add; no
//     string hashing or map insertion happens per event. The string-keyed
//     Charge/Cost/Events/Snapshot API remains as a compatibility shim.
//
//   - Batched commits. Access accumulates per-cause event counts in stack
//     locals while it walks lines, then commits once: one ledger charge,
//     one fault-counter update and one atomic clock advance per call,
//     instead of three lock acquisitions per 64-byte line. Because every
//     per-event cost is a fixed platform constant, the batched totals are
//     bit-identical to per-line charging — golden tests in internal/enclave
//     and internal/scbr pin this equivalence exactly.
//
//   - Bulk access APIs. AccessRange (contiguous), AccessN (scattered, e.g.
//     every record of a bucket) and AccessStride (page warm-up loops) let
//     data structures charge a whole node, payload or batch under a single
//     platform-lock acquisition and a single commit. The SCBR index,
//     kvstore, fsshield and eventbus layers all charge through these.
//
//   - An O(ways) LLC. The set-associative cache keeps flat tag/last-use
//     arrays; a hit updates one stamp instead of memmoving the set into
//     recency order, and eviction picks the minimum stamp — exactly
//     classic LRU, so hit/miss sequences are unchanged.
//
// The sim.Clock advance is a single atomic add, so concurrent Memory views
// on one platform never serialize on time-keeping. Fault counters and the
// ledger reset together under the platform mutex (Memory.ResetAccounting),
// so harnesses never observe a half-reset view.
//
// A practical consequence: wall-clock ns/op in the benchmarks is now a
// meaningful signal of simulator speed itself (the modeled costs are the
// sim-cycle metrics). scripts/bench_smoke.sh records both in one JSON
// document (committed as BENCH_N.json) to track the simulator-performance
// trajectory across PRs.
//
// # Concurrency & CI gates
//
// The routing, storage and compute layers all run shard-per-core while
// keeping every simulated figure deterministic. The pattern is the same in
// each layer: partition the data structure, give every partition its own
// simulated platform + enclave (enclave.NewWorker), write-lock only the
// home partition, and fan reads/batches out through a bounded worker set
// (sim.ParallelFor) with read-only snapshot accounting:
//
//   - Routing: the broker's subscription store is a scbr.ShardedIndex —
//     P containment forests keyed by subscription ID (ID mod P), each on
//     its own simulated platform + enclave, the partitioned-broker
//     deployment where every core owns a slice of the filter set.
//     Insert/Unsubscribe write-lock only the home shard; Publish matches
//     all shards through a bounded worker fan-out and merges results into
//     ascending-ID order.
//
//   - Storage: kvstore.ShardedStore partitions the secure structured data
//     store by key hash (FNV mod P). Point reads (Get/GetBatch) charge
//     read-only snapshot spans under the shard's read lock; PutBatch and
//     GetBatch fan out across shards while applying each shard's sub-batch
//     in slice order, so batch results and per-shard costs are independent
//     of the worker count. Property tests pin ShardedStore ≡ Store
//     results and bit-identical per-shard cycles across worker counts for
//     every shard count in {1,2,4,8}.
//
//   - Compute: mapreduce.ParallelSecureEngine runs the secure map/reduce
//     engine enclave-per-worker. The input splits across worker enclaves;
//     every intermediate record is sealed before leaving its enclave;
//     shuffle partitions hash to workers (partition mod Workers) for the
//     reduce phase. Per-phase stats report the summed-worker vs
//     critical-path cycle decomposition — the same scaling statement the
//     sharded broker makes.
//
// In every layer the shard/worker-enclave count is a *topology* parameter
// (it changes placement and therefore the figures) while execution
// parallelism (Workers/MaxParallel) never changes totals — pin the former
// when comparing runs, vary the latter freely.
//
//   - Snapshot match reads. Concurrent matches charge their traversals
//     through enclave.Memory.BeginSnapshotSpan: probes consult — but never
//     mutate — LLC and EPC state, with a span-local overlay so re-touches
//     within one operation behave as hits (as they would after a mutating
//     first touch; evictions a real run might trigger are deferred). Since
//     nothing mutates, probe totals commute: aggregate sim-cycles and
//     faults are bit-identical for any interleaving and any GOMAXPROCS.
//     The platform mutex is held only for the final ledger commit, so
//     matches on different shards — and on the same shard — run in
//     parallel.
//
//   - What stays under the platform mutex. All mutating accounting: index
//     registrations (ordinary spans hold the shard platform's mutex for
//     the traversal), fault-counter and ledger commits, enclave
//     transitions on the broker's front enclave, and every figure-3 /
//     golden path, which still runs the exact single-threaded model PR 1
//     pinned. Golden tests are unchanged.
//
//   - Determinism guarantees. Single-threaded figures are bit-identical to
//     the committed goldens. The Figure 3 sweep's points build independent
//     twin platforms, so `scbr-bench -parallel N` runs them concurrently
//     with bit-identical values. BenchmarkBrokerPublishParallel measures
//     per-op sim-cycles/faults in a sequential pass against the frozen
//     store — identical at every -cpu setting — and reports sim-speedup,
//     the summed-shard-cycles to critical-path (slowest shard) ratio an
//     ideal shard-per-core machine realises.
//
// The hot envelope path pairs this with a compact binary publication/
// subscription codec (JSON remains the client-facing form; the broker
// sniffs both), interned per-session AEAD contexts (cryptbox.CachedBox),
// pooled scratch buffers, and delivery sealing outside every broker lock.
// The event bus gained PublishBatch/PollBatch (one mutex acquisition per
// batch, one seal per message however many subscribers fan out) and prunes
// per-subscriber lease state on Subscriber.Close.
//
// # Application plane
//
// The attest, microsvc, orchestrator and container layers compose into one
// integrated plane that runs replicated micro-services the way the paper
// describes (§III-B(2), §V-A, §VI). The flow is:
//
//   - Key release (attest.KeyBroker). The owner registers each service's
//     request key and topic stream keys under an attestation policy.
//     Release happens only against a verified quote, over the attested
//     X25519 sealed channel shared with the CAS (attest.SealToVerdict /
//     OpenSealed); there is no unsealed release path, and the ReplicaSet
//     constructors accept a KeyBroker, never raw keys. Verified quotes are
//     cached by (platform, measurement) plus the hash of the exact signed
//     body — a forged quote can never ride a cached verdict — and both
//     service revocation (KeyBroker.Revoke) and platform revocation
//     (Service.Revoke) take effect immediately, cache or no cache.
//
//   - Serve (microsvc.ReplicaSet, the only way a micro-service serves).
//     A service runs as N enclave-per-replica workers behind an attested
//     front-end dispatcher. Every component
//     boots the paper's sequence — attest, fetch keys, subscribe — either
//     directly (enclave.NewSignedWorker on a fresh platform) or through
//     the full container path (container.LaunchNode + Engine.Run: image
//     pull, enclave build, SCONE boot with SCF release, then service-key
//     release). Requests travel as frames: a cleartext routing key plus
//     the body sealed under the request key; the front-end routes by key
//     hash over the replica order (key affinity), and bodies are opened
//     only inside the owning replica's enclave under accounting spans.
//
//   - Orchestrate (orchestrator + ReplicaSet as Launcher). Each Step is
//     one monitoring tick of a closed simulated-time loop: replicas serve
//     within a cycle budget (sim.MillisToCycles per tick), then Observe
//     samples queue depths (atomic counters plus eventbus
//     Subscriber.Depth — sampling never blocks serving) and service
//     cycles, and reacts the same tick: scale-out past MaxQueueDepth,
//     scale-in when idle, restart on crash and on the straggler rule
//     (Target.MaxServiceCycles). Retired replicas requeue their pending
//     work, so adaptation never loses requests.
//
// Which figures are what: replica count, platform config and routing are
// topology — they change placement and therefore per-replica cycle
// totals. Execution parallelism (ReplicaSetConfig.Workers) is execution —
// each replica owns a whole simulated platform, routing is a pure
// function of key and replica order, and replies flush in replica order,
// so traces and totals are bit-identical at any worker count. The four
// fault-injection scenarios (replica crash, load spike, hot-key skew,
// slow replica; microsvc.DefaultScenarios) pin everything that shapes
// them — seed, load schedule, injections, budgets — so their adaptation
// traces are deterministic artifacts: cmd/app-bench re-runs each scenario
// at worker counts 1,2,4,8, asserts bit-identical traces and totals, and
// cmd/bench-check gates the per-scenario cycle totals, adaptation
// latencies (in sim-ms) and trace lengths against
// scripts/bench_baseline.json.
//
// # Admission & overload
//
// The plane survives overload by refusing work deterministically instead
// of queueing it unboundedly. Giving ReplicaSetConfig an AdmissionConfig
// puts a tenant-aware admission controller between the front-end's poll
// and the replicas' queues:
//
//   - Tenant envelope. PlaneClient.SendTenant tags each request with a
//     tenant and a client-assigned id using a second frame version: the
//     two bytes where a legacy frame keeps its key length hold the
//     reserved magic 0xFFFF (SendBatch rejects keys that long), followed
//     by a flags byte, the tenant, the id, and then the usual key +
//     sealed body. Untagged requests keep the legacy layout bit for bit,
//     and replies echo the request's envelope, so a plane without an
//     AdmissionConfig is byte-identical to the pre-admission plane.
//
//   - Token buckets and weighted-fair dequeue. Each tenant has a
//     TenantPolicy (Weight, Rate, Burst, MaxQueue); buckets refill once
//     per Step and dispatch proceeds in weighted rounds over the sorted
//     tenant order, so shares are a pure function of config and arrival
//     order — never of map iteration or worker interleaving.
//
//   - Bounded queues and shed. A request arriving past its tenant's
//     MaxQueue or the global MaxGlobalQueue bound is shed at arrival
//     (admitted requests are never shed later) with a sealed reply
//     carrying a deterministic retry-after hint in sim-ms: the time the
//     tenant's queue needs to drain at its refill rate, capped at 64
//     steps. PlaneClient.EnableRetry turns the hints into exponential
//     backoff (hint × 2^attempt), re-sending due retries in (due, id)
//     order; work a retired replica requeues re-enters Step ahead of
//     admission, so it is neither charged twice nor shed twice.
//
//   - Hot-key splitting. When one key exceeds HotKeyPerStep dispatches in
//     a step and its home replica's queue is at least SplitDepth deep,
//     the overflow rotates across SplitWays neighbours — trading strict
//     key affinity for bounded straggler latency, deterministically.
//
// The declarative scenario lab (microsvc.ScenarioSpec, RunSpec) drives
// all of it closed-loop: a spec is pure data — tenants with load
// profiles (uniform, genpack batch-arrival, smartgrid streaming), a
// fault table, an admission config and an assertion table over the
// result's flat metric map — so a new scenario is ~20 lines.
// microsvc.LabScenarios pins eight: overload, noisy-neighbor, cascade,
// slow-network, recovery, crash-state, key-revocation and
// delta-durability; the four DefaultScenarios are ScenarioSpec literals
// on the uniform profile and run through the same RunSpec.
// cmd/app-bench sweeps the lab across worker counts, asserts every
// metric bit-identical, evaluates each spec's assertions, and runs the
// overload spike once more with the controller stripped
// (ScenarioSpec.WithoutAdmission): admission on must bound the final
// backlog, admission off must let it diverge past 8× that bound.
// cmd/app-bench exits nonzero on a failed assertion table or a broken
// contrast, and cmd/bench-check fails CI on drift in any lab metric.
//
// Because the simulated metrics are deterministic, they are CI-gated.
// scripts/ci.sh — run locally or by .github/workflows/ci.yml — enforces,
// beyond fmt/build/vet/test and -race on the concurrent packages
// (sim, enclave, scbr, eventbus, cryptbox, kvstore, mapreduce, the
// application plane: attest, microsvc, orchestrator, the data plane:
// transfer, registry, container, and the protected-file layer under the
// durable WAL: fsshield, shield, sconert):
//
//   - The bench gate: scripts/bench_smoke.sh reruns every bench driver,
//     the reduced Figure 3 sweep and the CacheMissVsSwap and
//     BrokerPublishParallel benchmarks from the code under test. Each
//     driver enforces its own invariants (worker-sweep equality,
//     assertion tables, zero-fetch warm pulls, delta beats full, no lost
//     or rejected wire requests) and exits nonzero when one fails. Every
//     section carries a flat "deterministic" map, and cmd/bench-check
//     requires each of those metrics — and each custom unit of the Go
//     benchmarks, equal across -cpu runs — to match
//     scripts/bench_baseline.json exactly. Wall-clock fields are never
//     gated (they measure the host). Deterministic means deterministic: a
//     drift is a semantic change to the simulator or its data structures,
//     so the gate fails the build rather than averaging. Committed
//     BENCH_N.json files are records, not gates.
//
//   - The golden-drift gate: the golden recorders rerun with
//     GOLDEN_UPDATE=1 in a scratch copy of the tree, and git diff must
//     stay silent on testdata — the committed goldens are exactly what the
//     current code regenerates.
//
// To change modeled costs deliberately: regenerate goldens with
// GOLDEN_UPDATE=1 go test ./..., then regenerate BENCH_N.json and
// refresh the metric baseline with
//
//	scripts/bench_smoke.sh > BENCH_N.json && go run ./cmd/bench-check -bench BENCH_N.json -update
//
// and commit all three together so the PR diff shows the intended figure
// changes.
//
// # Durability & recovery
//
// kvstore.DurableStore makes the sharded secure store survive total
// process loss by reusing the data plane's sealed-chunk machinery for its
// own persistence artifacts:
//
//   - Per-shard sealed WAL. Every PutBatch group-commits one WAL record
//     per touched shard before the in-enclave tables apply: the batch's
//     ops encode to a compact codec, seal convergently
//     (transfer.SealConvergent — identical log segments dedup like any
//     other chunk), and the record carries the convergent key wrapped
//     under the shard's WAL key plus a MAC bound to the log's identity
//     and position (fsshield.ChunkAAD over name, epoch, record index), so
//     records cannot be reordered, transplanted across shards or replayed
//     across epochs. Torn tails are part of the contract: damage confined
//     to the final record reads as a clean crash point and truncates;
//     damage earlier in the log is a hard ErrWALCorrupt. A fuzz target
//     (FuzzDecodeWALRecord) pins that every input lands in exactly
//     torn, corrupt or valid.
//
//   - Incremental sealed snapshots. Snapshot tracks per-shard dirty
//     state: a shard untouched since its last packed snapshot publishes a
//     tiny reuse record chaining to its parent manifest instead of
//     re-packing — the delta scales with what changed, not with the
//     dataset. Dirty shards serialize their table, pack it convergently
//     (transfer.PackConvergent) and publish the blob set through
//     internal/registry — chunk-granular, content-addressed, and deduped
//     against every image layer and prior snapshot already stored, so
//     even a packed shard republishes only its changed chunks. Every
//     snapshot record (packed or reuse) seals under a per-shard key
//     derived from the service key the attest.KeyBroker released, with
//     both the sequence number and the parent sequence bound into the
//     AAD: a chain cannot be spliced, re-pointed or rolled back without
//     failing authentication. The registry refuses sequence rollbacks and
//     keeps the chain's history addressable (SnapshotAt); packed shards
//     roll their WAL to a fresh epoch, reused shards keep their current
//     (empty) one.
//
//   - WAL-segment GC. Rolled epochs stay as sealed segments until
//     DurableStore.GC retires the ones the newest durable snapshot has
//     made redundant — strictly below the shard's replay epoch, minus a
//     configurable retention margin of newest sealed epochs
//     (GCRetainEpochs, default 1). GC never collects past the newest
//     published snapshot: a shard that has never snapshotted retires
//     nothing, so the byte set recovery needs is never narrowed.
//
//   - Recovery. RecoverDurableStore walks each shard's delta chain from
//     the latest record back to its packed ancestor — verifying every
//     link's parent binding, refusing missing links, spliced parents and
//     non-monotonic epochs — then pulls only the chunks its node cache is
//     missing via container.Engine.PullBlobSet (the same parallel
//     verified pull as image boot: per-chunk digest verification, tamper
//     isolation, warm BlobCache hits) and replays only the post-snapshot
//     WAL tail inside accounting spans. A warm node recovering a delta
//     chain therefore fetches the changed chunks, not the dataset.
//     Snapshot-bootstrap and log-replay sim-cycles are topology
//     (worker-invariant), so RecoveryStats is CI-gated like every other
//     simulated figure. Two fuzz targets pin the adversarial floor:
//     FuzzDecodeWALRecord (every WAL input lands torn, corrupt or valid)
//     and FuzzRecoverSnapshotChain (every chain mutation — spliced
//     parent, dropped link, bitflip, truncation, tampered chunk — either
//     recovers the exact reference state or is refused).
//
// The crash-state lab scenario drives the whole loop closed: replicas
// crash with total state loss mid-run, recover from snapshot + tail, and
// must come back bit-identical to a never-crashed twin fed the same
// request stream; delta-durability narrows the working set so most shards
// go cold, exercising reuse chains, chain-walking recovery and GC under
// the same bit-identical pin; key-revocation drives the fail-closed half,
// revoking the service mid-run so replacement replicas are denied keys
// until a reinstate lets them re-attest. cmd/durability-bench measures
// the delta against the full-snapshot baseline — publish chunks and
// cycles, warm-vs-cold recovery fetches, GC retirements — swept across
// worker counts and gated by cmd/bench-check.
//
// # Cluster & placement
//
// internal/cluster turns the implicit single node into a simulated
// multi-node SGX cluster: N nodes, each owning its own enclave platforms,
// its own node-local container.BlobCache, and its own attested KeyBroker
// session ("cluster/node<i>"), joined to the origin registry by links
// whose chunk-transfer cost is the analytic transfer.LinkCost model
// (per-chunk latency + per-KiB cycles, summed atomically so concurrent
// fetch workers cannot reorder the totals). The orchestrator grows a
// placement axis to match: a Placer scores candidate NodeInfo snapshots
// by blob-cache locality (warm fraction of the service image's chunk set)
// against current load, with ties broken on the lowest node index — a
// pure function of the candidate set, pinned permutation-invariant by
// property test. microsvc.ClusterSet rides the replica set on top: the
// front-end boots on the gateway (node 0, warming its cache), every
// replica boots where the placer says, and a boot that fails chunk
// verification isolates its node before the error propagates.
//
// Node-level faults map onto the plane's existing reactions: a node
// crash kills its replicas (the orchestrator reschedules onto surviving
// nodes — the warm-vs-cold fetch contrast is a gated metric,
// warm_lt_cold_ok); a network partition makes a node's link refuse and
// its replicas unreachable (routed requests shed deterministically with
// retry-after; served_via_unreachable is the fail-open tripwire, gated
// to zero); a byzantine registry serves one node tampered chunks (pulls
// fail closed on digest verification, the node isolates, placement
// routes around it; tampered_cached — a full cache audit — is the
// cache-poisoning tripwire, gated to zero). Three lab scenarios
// (node-crash, node-partition, byzantine-registry) drive these loops
// closed, swept across workers 1,2,4,8 with every per-node figure
// bit-identical.
//
// Node count, capacity, link cost and placer weights are topology; host
// workers remain execution-only. Components report their counters
// through one shared surface, stats.Source (flat name → float64
// snapshots, implemented by the registry, blob cache, scheduler, replica
// set and cluster), which is what folds the per-node figures into the
// gated scenario metric tables.
//
// # Data plane
//
// Image distribution — the paper's secure Docker workflow (Figure 2)
// carried by its "efficient transmission of large amounts of data"
// component (§III-B(3)) — runs on one content-addressed sealed data plane
// built from three layers:
//
//   - internal/transfer is the chunk substrate: payloads stream through
//     Pack/Unpack (io.Reader/io.Writer, one chunk resident at a time),
//     each chunk compressed with pooled flate state, sealed, and pinned
//     under a Merkle root. Convergent mode (PackConvergent) seals every
//     chunk under a key derived from its own content with a deterministic
//     nonce, so identical content produces bit-identical sealed bytes;
//     the per-chunk keys ride in the manifest, which is the trusted
//     artifact anyway. Manifest validation pins the leaf count to the
//     declared geometry (the forged-count guard, mirrored from the scbr
//     codec), and a fuzz target covers manifest decoding.
//
//   - internal/registry stores layers chunk-granularly: every layer is
//     encoded deterministically (image.Layer.Encode, length-prefixed and
//     parseable, distinct from the digest-defining canonical form) and
//     chunked convergently, and blobs are keyed by chunk content digest.
//     Dedup keying is exactly that digest: a base layer shared by N
//     images is stored once, and Registry.Stats counts the hits. The
//     HTTP front end serves image manifests, layer chunk manifests and
//     single blobs, with digest-conditional GET (ETag/If-None-Match) on
//     the content-addressed endpoints.
//
//   - internal/container pulls: Engine.PullImage fetches the manifests,
//     computes the unique chunk set, classifies it against the node-local
//     BlobCache, fans the missing chunks out across workers
//     (sim.ParallelFor), verifies each against its digest before it may
//     enter the cache (a digest can never map to wrong bytes, so the
//     cache is unpoisonable by construction), and reassembles each layer
//     inside a per-layer verification enclave charged through the
//     transfer receiver. Failed chunks fail alone; everything verified
//     stays cached, so retrying a partial pull resumes instead of
//     restarting. Engines sharing one BlobCache give the Nth replica on
//     a node a zero-fetch boot — microsvc's container-mode ReplicaSet
//     wires exactly that.
//
// Topology vs execution: the chunk set, the dedup and cache outcomes and
// the per-layer enclaves are topology — pure functions of image bytes and
// cache state. Pull worker count is execution only. Every PullStats field
// (chunks fetched, dedup hits, serial vs critical-path cycles, faults) is
// therefore bit-identical across worker counts; cmd/pull-bench sweeps
// workers 1,2,4,8, asserts exactly that plus the zero-fetch warm boot,
// and cmd/bench-check gates its deterministic metrics like every other
// simulated figure.
//
// # Wire front end & wall-clock benchmarking
//
// internal/wire puts real HTTP in front of the attested plane without
// moving any trust there: SCBR subscribe/publish/poll and ReplicaSet
// send/poll-reply endpoints carry the existing sealed envelopes verbatim
// as request and response bodies, so the front end relays bytes it cannot
// open — a compromised server degrades availability, never
// confidentiality. Confidentiality alone does not close the control
// surface, though, so the wire locks it down explicitly: an SCBR
// handshake never displaces a live session (rotating a client ID's key
// requires Rehandshake, a proof sealed under the current session key —
// without this, any network peer could re-key a victim's ID and have its
// future deliveries sealed to the attacker), SCBR polls are destructive
// drains and therefore demand a sealed single-use token with a monotonic
// anti-replay counter, wire clients can attest the broker enclave through
// nonce-bound quotes (/scbr/quote + DialSCBROpts) before handing over
// filters just like in-process scbr.Connect, and Config.AuthToken
// optionally gates the whole /scbr/* + /plane/* surface behind a bearer
// token for deployments beyond a trusted loopback. The plane gateway
// validates ingress frames structurally (microsvc.CheckFrame) and routes
// reply frames to per-tenant mailboxes by their cleartext tenant header —
// one polling client per tenant, each mailbox capped (drop-oldest, the
// mail_dropped counter) so forged tenant IDs cannot grow memory without
// bound; the frame-batch codec clamps claimed counts by the physical
// minimum before allocating (the forged-count guard again) and rejects
// trailing garbage; bodies are bounded via internal/httpx, the plumbing
// shared with the registry's front end, and client-side reads are capped
// symmetrically. A PlaneClient built over wire.PlaneTransport is
// byte-for-byte the in-process client — the wire tests prove the sealed
// replies identical because the bus fans the same frames to both.
//
// This is where the repo's two kinds of performance measurement meet.
// Sim-cycle figures are modeled costs: deterministic, bit-identical
// across hosts, gated by cmd/bench-check. Wall-clock figures
// measure the host and are informational only. internal/loadgen keeps
// the two cleanly apart: its closed-loop harness (fixed client
// population, seeded key/tenant/payload mix, warmup/inject/recover
// phases in lockstep ticks) produces counters and payload-size histogram
// buckets that are pure functions of the spec — gated — while its
// fixed-bucket latency histogram (p50/p95/p99/max) times real HTTP round
// trips — informational. cmd/wire-bench runs the whole stack twice on
// fresh loopback servers and asserts every deterministic counter matches
// bit-for-bit (runs_equal; the command fails otherwise, as it does on
// a lost request or a rejected frame); `wire-bench -pprof` additionally
// mounts net/http/pprof on the bench listener, which is how the hot-path
// work is found: profile, fold allocations out of the frame/seal paths
// (exact-capacity contiguous seal buffers, precomputed AADs, slice-based
// admission histograms), and prove the wins with go test -benchmem
// before/after while bench-check pins every sim metric unchanged.
package securecloud
