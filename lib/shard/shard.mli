(** The Time Warp core (Jefferson, "Virtual Time", TOPLAS 1985 — the
    paper's reference [14]), with two transports.

    Logical processes (LPs) exchange timestamped event messages. The LP
    space is partitioned into shards by the fixed assignment
    [lp mod shards] ({!Hope_sim.Context.owner}); each shard processes
    its lowest-timestamp pending event optimistically. A {e straggler}
    (an arrival below the destination's local virtual time) rolls that
    LP back: state restore, input requeue, and {e anti-messages} that
    annihilate unprocessed copies or cause secondary rollbacks at
    receivers. GVT (global virtual time) commits and fossil-collects
    everything below the global minimum. States are immutable values,
    so a snapshot is a binding.

    Two transports carry messages between shards, both FIFO per
    directed shard pair:
    - {!run}: one shard per OCaml domain, lock-free SPSC {!Mailbox}
      rings, and a GVT from per-pair sent/recvd counters plus per-shard
      floors, coordinated by shard 0's domain;
    - {!simulate}: one shard per LP, each its own host on a simulation
      {!Hope_sim.Engine} — latency-sampled deliveries, a per-event CPU
      cost, preemption of the busy event, and a GVT every
      [gvt_interval] of simulated time (experiment E7).

    Determinism: Time Warp commits exactly the sequential event set, so
    sorting the commit records by a transport- and domain-count-
    independent key (recv_ts, dst_lp, send_ts, src_lp, payload digest)
    yields a merged trace that is byte-identical for either transport
    and any domain count ({!merge_into}, pinned in CI). *)

(** A model of the simulated system. *)
type ('s, 'p) model = {
  init : int -> 's;  (** initial state of each LP *)
  handle :
    lp:int -> ts:float -> 's -> 'p -> 's * (int * float * 'p) list;
      (** process one event at virtual time [ts]; returns the new state
          and output events as [(dest_lp, recv_ts, payload)] with
          [recv_ts > ts] (enforced). *)
}

type 'p message = {
  mid : int;
  src_lp : int;
  dst_lp : int;
  send_ts : float;
  recv_ts : float;
  payload : 'p;
  anti : bool;
  root_shard : int;
      (** provenance: shard of the straggler that (transitively) caused
          this anti-message; [-1] on positives and seed messages *)
  root_mid : int;  (** mid of the root straggler message, [-1] if none *)
  root_send_ts : float;  (** send_ts of the root straggler, [0.] if none *)
}
(** Cross-shard wire format. The three [root_*] fields thread rollback
    provenance through cascades: when a straggler at shard [S] rolls a
    destination back, the anti-messages it emits are stamped with the
    straggler's identity; a {e secondary} rollback triggered by such an
    anti inherits the same root, so every wasted event anywhere in the
    cascade is attributable to the shard/message that started it. *)

type provenance = {
  p_shard : int;  (** shard that sent the root straggler ([-1] = local) *)
  p_mid : int;  (** message id of the root straggler (globally unique) *)
  p_send_ts : float;  (** virtual send time of the root straggler *)
}
(** Root-cause identity of a rollback cascade. *)

type commit = {
  c_recv_ts : float;
  c_dst_lp : int;
  c_src_lp : int;
  c_send_ts : float;
  c_digest : int;
}
(** One committed event. Message ids and shard ids are deliberately
    absent: both depend on the domain count. *)

val commit_compare : commit -> commit -> int
(** The deterministic merge order. *)

type ('s, 'p) spec = {
  model : ('s, 'p) model;
  n_lps : int;
  horizon : float;  (** outputs with [recv_ts > horizon] are dropped *)
  seeds : (int * float * 'p) list;  (** initial [(dst_lp, ts, payload)] *)
  digest : 'p -> int;
      (** deterministic payload fingerprint for the merge key and trace;
          must not depend on execution order *)
  dummy : 'p;  (** scrub value for rings and queues *)
}

type 's result = {
  states : 's array;  (** final LP states, indexed by global LP id *)
  commits : commit array;  (** sorted by {!commit_compare} *)
  processed : int;  (** executions incl. rolled-back work *)
  committed : int;  (** = [Array.length commits] = sequential event count *)
  messages : int;  (** positive event messages sent, seeds and re-sends included *)
  rollbacks : int;
  rolled_back : int;
  stragglers : int;
  anti_messages : int;
  annihilations : int;
      (** anti-messages that cancelled a pending (unprocessed) positive —
          tombstone hits at pop plus in-queue drops during rollback *)
  remote_sends : int;
  full_spins : int;
      (** producer spins on a full outbound ring — the monitor's
          [Mailbox_backpressure] signal *)
  max_rollback_depth : int;
      (** deepest single rollback (events undone at once) on any shard *)
  gvt_rounds : int;
  domains : int;  (** OCaml domains used: 1 for {!simulate} *)
  engines : Hope_sim.Engine.t array;
      (** per-shard engines, indexed by shard id; their metrics
          registries carry the [shard.*] counters/gauges that
          [Telemetry.absorb_shards] exports as [shard="N"] labeled
          OpenMetrics families *)
  samples : Hope_obs.Monitor.shard_sample list;
      (** per-shard telemetry snapshots, taken at every GVT advance and
          every 2048 processed events, sorted by (gvt, shard, events);
          feed to {!Hope_obs.Monitor.observe_shards} (or
          [Telemetry.absorb_shards]) to arm the parallel diagnostics *)
  wasted_by_root : (provenance * int) list;
      (** rollback attribution: for each root straggler, how many
          executed events its cascade undid (primary and secondary
          rollbacks both); sorted by (shard, mid). The counts sum to
          {!field-rolled_back} — per-run truth, {e not} deterministic
          across domain counts (a race decides which events speculate
          ahead far enough to be wasted) *)
}

exception Shard_failure of { shard : int; lp : int; exn : exn }
(** A shard's loop raised [exn] (typically the model's [handle]) while
    executing, or just after executing, an event of LP [lp] ([-1] if it
    had executed none). Every other shard has stopped when this
    surfaces, and {!run} has joined every domain. *)

val run :
  ?domains:int ->
  ?seed:int ->
  ?obs_shard:(int -> Hope_obs.Recorder.t option) ->
  ('s, 'p) spec ->
  's result
(** [run ~domains spec] executes the model to quiescence over the ring
    transport. [domains] (default 1, max 64) spawns [domains - 1]
    worker domains; shard 0 runs on the calling domain and doubles as
    the GVT coordinator. [obs_shard] supplies an optional per-domain
    recorder per shard id for diagnostics ([Shard_straggler],
    [Gvt_advance]); these streams are per-domain and {e not}
    deterministic across domain counts — the deterministic artifact is
    {!merge_into}'s. [seed] feeds each shard's {!Hope_sim.Context} RNG
    stream.
    @raise Shard_failure if any shard raises.
    @raise Invalid_argument on bad [domains]/[spec]. *)

val simulate :
  engine:Hope_sim.Engine.t ->
  latency:Hope_net.Latency.t ->
  event_cost:float ->
  gvt_interval:float ->
  ('s, 'p) spec ->
  's result
(** [simulate ~engine ~latency ~event_cost ~gvt_interval spec] executes
    the model to quiescence over the simulated wire: LP [i] is shard [i]
    and its own host on [engine]. A delivery takes one [latency] sample
    (never overtaking an earlier one on the same directed pair), an
    event takes [event_cost] of simulated time, an arrival below the
    event being executed preempts it, and every [gvt_interval] GVT is
    the minimum over in-flight and pending messages. Latency samples
    draw from a stream split off [engine]'s RNG, so the run is
    deterministic in [engine]'s seed. [Engine.now engine] afterwards is
    the physical completion time.
    @raise Shard_failure if the model raises.
    @raise Failure if [engine] stops before quiescence. *)

val sequential : ('s, 'p) spec -> 's array * int
(** The conservative single-queue reference execution of [spec]: the
    final LP states and the number of events executed. Time Warp must
    produce exactly these states. *)

val merge_into : Hope_obs.Recorder.t -> 's result -> unit
(** Emit one [Shard_commit] event per committed record, in
    {!commit_compare} order, at [time = recv_ts] on [proc = dst_lp].
    Byte-identical downstream chrome traces at any domain count. *)

val commits_digest : 's result -> int
(** Order-sensitive fingerprint of the sorted commit sequence; equal
    across domain counts iff the committed event sets (and their merge
    order) match. The [parallel] bench rows carry it so
    [bench/compare.exe] can gate cross-domain determinism. *)
