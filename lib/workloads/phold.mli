(** PHOLD: the classic synthetic discrete-event-simulation workload, used
    by experiment E7 to compare dedicated Time Warp (the paper's reference
    [14], one fixed optimistic assumption) against the same model
    expressed with HOPE primitives (assumption: "no straggler will arrive
    below this event's timestamp").

    A fixed population of jobs hops between logical processes; each hop is
    processed at its receive timestamp and schedules the next hop after an
    exponential virtual delay, to a random LP. All randomness is derived
    from the (job, hop) pair, so the three executions — sequential
    reference, Time Warp, and HOPE — simulate the {e same} trajectory and
    must produce identical per-LP checksums. *)

type params = {
  n_lps : int;
  jobs : int;  (** circulating job population *)
  mean_delay : float;  (** mean virtual hop delay *)
  remote_prob : float;  (** probability a hop leaves its LP *)
  horizon : float;  (** virtual end time *)
  event_cost : float;  (** physical CPU time per event *)
  latency : Hope_net.Latency.t;  (** physical message latency *)
}

val default_params : params

type lp_state = { handled : int; checksum : int }

val model : params -> (lp_state, Job.t) Hope_shard.Shard.model

val seeds : params -> (int * float * Job.t) list
(** Initial events, one per job. *)

type outcome = {
  checksums : int array;  (** per-LP final checksum *)
  handled_total : int;  (** committed events *)
  processed : int;  (** executions including undone work *)
  rollbacks : int;
  messages : int;  (** model-level event messages sent *)
  physical_time : float;
}

val run_sequential : params -> outcome
(** The conservative reference execution ({!Hope_shard.Shard.sequential};
    zero-cost oracle: [processed], [messages] count model events;
    [physical_time] is 0). *)

val shard_spec : ?grain:int -> params -> (lp_state, Job.t) Hope_shard.Shard.spec
(** The PHOLD model packaged for the Time Warp core. [grain] (default
    0) adds that many iterations of deterministic integer mixing per
    event — synthetic CPU weight for parallel scaling runs; it does not
    change the trajectory. *)

val run_timewarp : ?seed:int -> params -> outcome * lp_state Hope_shard.Shard.result
(** Run PHOLD on the Time Warp core's simulated wire
    ({!Hope_shard.Shard.simulate}): each LP its own host, [latency] per
    message, [event_cost] per event, GVT every 10 ms of simulated time.
    [physical_time] is the simulated completion time. Commits exactly
    the sequential event set, so the paired result's commit records
    equal {!run_parallel}'s. *)

val run_parallel :
  ?domains:int ->
  ?seed:int ->
  ?grain:int ->
  ?obs_shard:(int -> Hope_obs.Recorder.t option) ->
  params ->
  outcome * lp_state Hope_shard.Shard.result
(** Run PHOLD on the Time Warp core's ring transport across OCaml 5
    domains ({!Hope_shard.Shard.run}). Commits exactly the sequential
    event set at any [domains] — [checksums] must equal
    {!run_sequential}'s — and the paired raw result carries the sorted
    commit records for the deterministic merged trace. [messages]
    counts positive event messages sent, as for {!run_timewarp};
    [physical_time] is 0. *)

val run_hope :
  ?seed:int ->
  ?obs:Hope_obs.Recorder.t ->
  ?on_setup:(Hope_core.Runtime.t -> unit) ->
  params ->
  outcome
(** The HOPE-expressed optimistic simulator: each LP guesses per event
    that no straggler will undercut it, denies the earliest violated guess
    when one does, and the driver flushes affirms for every surviving
    assumption once the event traffic quiesces (the resulting self-cycles
    are resolved by Algorithm 2's cuts). @raise Failure on invariant
    violation or non-quiescence. *)
