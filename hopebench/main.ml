(* hope-bench: a closed-loop benchmark of the HOPE reproduction.

   One caller per workload runs full simulations back to back through the
   workloads' public entry points ([Report.run], [Phold.run_hope],
   [Phold.run_sequential], [Occ.run], [Phold.run_parallel]). One full
   simulation is an iteration; an op is one committed unit (a report
   section, a PHOLD event, an OCC transaction). End-to-end numbers come
   from untraced iterations; per-layer numbers come from the program's
   own counters plus one separate traced pass. README.md explains the
   workloads, the metrics and the layer map.

   Usage:
     main.exe --workload NAME|all --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Hope_workloads
module Metrics = Hope_sim.Metrics
module Engine = Hope_sim.Engine
module Recorder = Hope_obs.Recorder
module Event = Hope_obs.Event
module Shard = Hope_shard.Shard

(* Iteration i runs seed [base + i mod seed_cycle], so every seed repeats
   and its exact counts can be compared; timing stops only at the end of
   a cycle, so every count ratio covers whole cycles and is fixed by the
   base seed. *)
let seed_cycle = 16

(* Untimed iterations (seeds base, base+1) after the reference runs. *)
let warmup = 2

(* Child processes whose start-to-set-up-done time gives [setup_s]. *)
let setup_probes = 5

(* The tail is the sample with ten beyond it: 40 samples put it at p75
   or higher. *)
let min_timed = 40

(* Never used while the benchmark was tuned; reserve it for checking a
   claimed gain on a seed the change was not written against. *)
let heldout_seed = 7919

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns *. 1e-6

(* ------------------------------------------------------------------ *)
(* One iteration                                                       *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ops : int;  (** committed units *)
  msgs : int;  (** messages sent *)
  sim_ms : float;  (** virtual completion time, ms *)
  exact : string;
      (** every count the seed fixes, compared across repeats of a seed;
          [""] when the run is racy *)
  raw : (string * float) list;  (** per-layer counts, summed over iterations *)
  peak : (string * float) list;  (** per-layer maxima *)
}

(* Tracing hooks: a recorder for the single-engine workloads, with the
   tap already set on it, and one recorder per shard for the sharded
   one. Both [None] in timed iterations. *)
type obs = {
  hope : (Recorder.t * Recorder.tap) option;
  shard : (int -> Recorder.t option) option;
}

let untraced = { hope = None; shard = None }

type workload = {
  name : string;
  domains : int;
  layers : string list;  (** layers this workload runs *)
  prepare : unit -> unit;  (** set-up reference runs *)
  run : seed:int -> obs -> outcome;  (** raises [Failure] on a failed check *)
}

let fail fmt = Printf.ksprintf failwith fmt

(* The engine of a HOPE run, captured through [?on_setup]. *)
let capture () =
  let eng = ref None in
  let on_setup rt =
    eng := Some (Hope_proc.Scheduler.engine (Hope_core.Runtime.scheduler rt))
  in
  let get () =
    match !eng with Some e -> e | None -> fail "no runtime was installed"
  in
  (on_setup, get)

let hope_outcome eng ~ops ~msgs ~sim_ms =
  let reg = Engine.metrics eng in
  let counters = Metrics.counters reg in
  let hist name f =
    match List.assoc_opt name (Metrics.histograms reg) with
    | Some h when Metrics.hist_count h > 0 -> f h
    | _ -> 0.
  in
  let events = Engine.events_processed eng in
  let exact =
    Printf.sprintf "ops=%d msgs=%d sim=%h events=%d %s" ops msgs sim_ms events
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))
  in
  {
    ops;
    msgs;
    sim_ms;
    exact;
    raw =
      ("sim.events", float_of_int events)
      :: ("ido.sum", hist "hope.interval_ido_size" Metrics.hist_sum)
      :: ("ido.count", hist "hope.interval_ido_size" (fun h ->
              float_of_int (Metrics.hist_count h)))
      :: List.map (fun (k, v) -> (k, float_of_int v)) counters;
    peak = [ ("spec_depth", hist "hope.speculation_depth" Metrics.hist_max) ];
  }

let hope_layers = [ "sim"; "net"; "proc"; "core"; "types"; "gov" ]

let net_class : Event.payload -> bool = function
  | Wire_send _ | Msg_send _ | Msg_recv _ | Cancel_send _ -> true
  | _ -> false

(* Hybrid [Occ.run] wires a telemetry monitor and a governor onto the
   run's recorder after [on_setup], and the monitor's tap would replace
   the benchmark's. For a traced run, install that same wiring here
   (Occ.run respects a governor that is already installed) and put one
   tap on the recorder that feeds the benchmark's tap and then the
   monitor, which is handed only the event classes it subscribes to.
   The exact-count check confirms the traced runs match the untraced. *)
let keep_tap_beside_governor rt r tap =
  let engine = Hope_proc.Scheduler.engine (Hope_core.Runtime.scheduler rt) in
  let tele = Hope_sim.Telemetry.create ~deep:true ~stride:1e-3 ~recorder:r () in
  Hope_sim.Telemetry.install tele engine;
  ignore
    (Hope_gov.Governor.install ~policy:Hope_gov.Policy.hybrid rt ~tele
      : Hope_gov.Governor.t);
  let mon = Hope_sim.Telemetry.monitor tele in
  Recorder.set_tap r ~net:true ~dep:true (fun ~time ~proc payload ->
      tap ~time ~proc payload;
      if not (net_class payload) then Hope_obs.Monitor.observe mon ~time ~proc payload)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let report_wan =
  let p = { Report.default_params with sections = 80 } in
  {
    name = "report-wan";
    domains = 1;
    layers = hope_layers;
    prepare = ignore;
    run =
      (fun ~seed obs ->
        let on_setup, engine = capture () in
        let r =
          Report.run ~seed ?obs:(Option.map fst obs.hope) ~on_setup
            ~latency:Hope_net.Latency.wan ~mode:`Optimistic p
        in
        hope_outcome (engine ()) ~ops:p.sections ~msgs:r.messages
          ~sim_ms:(r.completion_time *. 1e3));
  }

let phold_hope =
  let p = Phold.default_params in
  let oracle = lazy (Phold.run_sequential p) in
  {
    name = "phold-hope";
    domains = 1;
    layers = hope_layers;
    prepare = (fun () -> ignore (Lazy.force oracle : Phold.outcome));
    run =
      (fun ~seed obs ->
        let on_setup, engine = capture () in
        let o = Phold.run_hope ~seed ?obs:(Option.map fst obs.hope) ~on_setup p in
        let seq = Lazy.force oracle in
        if o.checksums <> seq.checksums || o.handled_total <> seq.handled_total
        then fail "phold-hope: checksums differ from Phold.run_sequential";
        let eng = engine () in
        hope_outcome eng ~ops:o.handled_total
          ~msgs:
            (Metrics.find_counter (Engine.metrics eng) "net.user_and_ctl_sends")
          ~sim_ms:(o.physical_time *. 1e3));
  }

let occ_hotspot =
  let p =
    {
      Occ.default_params with
      clients = 8;
      transactions = 240;
      skew = 2.0;
      think_time = 2e-3;
      store_cost = 0.5e-3;
    }
  in
  let writes = ref None in
  {
    name = "occ-hotspot";
    domains = 1;
    layers = hope_layers;
    prepare = ignore;
    run =
      (fun ~seed obs ->
        let capture_engine, engine = capture () in
        let on_setup rt =
          capture_engine rt;
          match obs.hope with
          | None -> ()
          | Some (r, tap) -> keep_tap_beside_governor rt r tap
        in
        let r = Occ.run ~seed ?obs:(Option.map fst obs.hope) ~on_setup ~mode:`Hybrid p in
        let eng = engine () in
        let m = Engine.metrics eng in
        (* Occ.run has already checked the store's version sum against
           the writes of every transaction; that sum is fixed by the
           parameters, so it must also agree across seeds. *)
        let expected = p.clients * p.transactions in
        if r.committed <> expected then
          fail "occ-hotspot: %d commits, expected %d" r.committed expected;
        (match !writes with
        | Some v when v <> r.version_sum ->
          fail "occ-hotspot: version sum %d, earlier runs %d" r.version_sum v
        | _ -> writes := Some r.version_sum);
        hope_outcome eng ~ops:r.committed
          ~msgs:(Metrics.find_counter m "net.user_and_ctl_sends")
          ~sim_ms:(r.makespan *. 1e3));
  }

let phold_shard =
  let p =
    {
      Phold.default_params with
      n_lps = 16;
      jobs = 64;
      remote_prob = 0.5;
      horizon = 400.0;
    }
  in
  let grain = 2000 and domains = 2 in
  let oracle =
    lazy
      (let seq = Phold.run_sequential p in
       let _, one = Phold.run_parallel ~domains:1 ~grain p in
       (seq, Shard.commits_digest one))
  in
  {
    name = "phold-shard";
    domains;
    layers = [ "shard" ];
    prepare = (fun () -> ignore (Lazy.force oracle : Phold.outcome * int));
    run =
      (fun ~seed obs ->
        let o, r =
          Phold.run_parallel ~domains ~seed ~grain ?obs_shard:obs.shard p
        in
        let seq, digest = Lazy.force oracle in
        if o.checksums <> seq.checksums then
          fail "phold-shard: checksums differ from Phold.run_sequential";
        if Shard.commits_digest r <> digest then
          fail "phold-shard: commit digest differs from the 1-domain run";
        let n = Array.length r.commits in
        let f = float_of_int in
        {
          ops = r.committed;
          msgs = r.remote_sends + r.anti_messages;
          (* No physical-time model: the model time of the last commit. *)
          sim_ms = (if n = 0 then 0. else r.commits.(n - 1).c_recv_ts *. 1e3);
          exact = "";
          raw =
            [
              ("shard.processed", f r.processed);
              ("shard.committed", f r.committed);
              ("shard.stragglers", f r.stragglers);
              ("shard.rolled_back", f r.rolled_back);
              ("shard.anti_messages", f r.anti_messages);
              ("shard.annihilations", f r.annihilations);
              ("shard.full_spins", f r.full_spins);
              ("shard.gvt_rounds", f r.gvt_rounds);
            ];
          peak = [ ("shard.max_rollback_depth", f r.max_rollback_depth) ];
        });
  }

let workloads = [ report_wan; phold_hope; occ_hotspot; phold_shard ]

(* ------------------------------------------------------------------ *)
(* Traced pass: tap attribution and the GC cursor                      *)
(* ------------------------------------------------------------------ *)

(* Layer index an event's preceding gap is charged to. *)
let layer_core = 0
and layer_net = 1
and layer_proc = 2
and layer_shard = 3
and layer_none = 4

let layer_of : Event.payload -> int = function
  | Aid_create _ | Aid_transition _ | Guess _ | Affirm _ | Deny _ | Free_of _
  | Interval_open _ | Interval_finalize _ | Rollback_cascade _
  | Dep_resolved _ | Cycle_cut _ ->
    layer_core
  | Wire_send _ | Msg_send _ | Msg_recv _ | Cancel_send _ -> layer_net
  | Mailbox_compact _ -> layer_proc
  | Shard_straggler _ | Gvt_advance _ -> layer_shard
  | Sim_stop _ | Shard_commit _ -> layer_none

(* GC pauses (minor collections and major slices), read from this
   process's own Runtime_events ring. *)
module Gc_cursor = struct
  let total_ns = ref 0
  let max_ns = ref 0
  let lost = ref 0
  let minor_begin = Array.make 128 0
  let slice_begin = Array.make 128 0
  let cursor = ref None

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring t phase ->
        match phase with
        | Runtime_events.EV_MINOR -> minor_begin.(ring) <- ts t
        | EV_MAJOR_SLICE when minor_begin.(ring) = 0 ->
          (* A slice inside a minor collection is part of its pause. *)
          slice_begin.(ring) <- ts t
        | _ -> ())
      ~runtime_end:(fun ring t phase ->
        let pause start =
          if start > 0 then begin
            let d = ts t - start in
            total_ns := !total_ns + d;
            if d > !max_ns then max_ns := d
          end
        in
        match phase with
        | Runtime_events.EV_MINOR ->
          pause minor_begin.(ring);
          minor_begin.(ring) <- 0
        | EV_MAJOR_SLICE ->
          pause slice_begin.(ring);
          slice_begin.(ring) <- 0
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
    | None -> ()

  (* Start (or resume) the ring and skip whatever it already holds. *)
  let resume () =
    (match !cursor with
    | None ->
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
    | Some _ -> Runtime_events.resume ());
    poll ();
    total_ns := 0;
    max_ns := 0;
    lost := 0

  let pause () =
    poll ();
    Runtime_events.pause ()
end

(* Per-recorder tap state: each event is stamped with the monotonic
   clock and the gap since the previous stamp is charged to the layer
   that emitted it. Time spent inside the tap is kept apart. *)
type tap_state = {
  start : int;
  mutable stop : int;  (** end of the iteration the tap belongs to *)
  mutable last : int;
  mutable self : int;
  charged : int array;
  mutable events : int;
  mutable sends : int;
  mutable tags : int;
  polls : bool;  (** this tap runs on the domain that owns the GC cursor *)
}

let new_tap_state ~polls =
  let t = now_ns () in
  {
    start = t;
    stop = t;
    last = t;
    self = 0;
    charged = Array.make 5 0;
    events = 0;
    sends = 0;
    tags = 0;
    polls;
  }

let traced_tap st : Recorder.tap =
 fun ~time:_ ~proc:_ payload ->
  let t = now_ns () in
  let l = layer_of payload in
  st.charged.(l) <- st.charged.(l) + (t - st.last);
  st.events <- st.events + 1;
  (match payload with
  | Msg_send { tags; _ } ->
    st.sends <- st.sends + 1;
    st.tags <- st.tags + Hope_types.Aid.Set.cardinal tags
  | _ -> ());
  if st.polls && st.events land 4095 = 0 then Gc_cursor.poll ();
  let t' = now_ns () in
  st.self <- st.self + (t' - t);
  st.last <- t'

(* A recorder that stores nothing and feeds only the tap. *)
let traced_recorder st =
  let r = Recorder.create () and tap = traced_tap st in
  Recorder.set_tap r ~net:true ~dep:true tap;
  (r, tap)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall_ns : int;
  t_end : int;
  words : float;  (** minor words allocated, all domains *)
  out : outcome option;  (** [None]: the iteration failed *)
}

type state = {
  w : workload;
  base : int;
  firsts : (int, outcome) Hashtbl.t;  (** first outcome of each seed *)
  mutable attempted : int;
  mutable failed : int;
  mutable heap_words : int;
      (** [top_heap_words] after the first timed seed cycle: read at a
          fixed point, since the heap can creep with the iteration count,
          which depends on the host's speed *)
}

let minor_words w =
  if w.domains > 1 then begin
    (* Other domains' allocation is only visible through quick_stat
       once every minor heap has been emptied. *)
    Gc.minor ();
    (Gc.quick_stat ()).minor_words
  end
  else Gc.minor_words ()

let iterate st ~obs i =
  let seed = st.base + (i mod seed_cycle) in
  let w0 = minor_words st.w in
  let t0 = now_ns () in
  let res = try Ok (st.w.run ~seed obs) with e -> Error (Printexc.to_string e) in
  let t1 = now_ns () in
  let w1 = minor_words st.w in
  let res =
    match res with
    | Ok o -> (
      match Hashtbl.find_opt st.firsts seed with
      | None ->
        Hashtbl.add st.firsts seed o;
        res
      | Some first when first.exact <> o.exact ->
        Error
          (Printf.sprintf "exact-count mismatch on a repeat of seed %d:\n  %s\n  %s"
             seed first.exact o.exact)
      | Some _ -> res)
    | Error _ -> res
  in
  st.attempted <- st.attempted + 1;
  let out =
    match res with
    | Ok o -> Some o
    | Error msg ->
      st.failed <- st.failed + 1;
      Printf.eprintf "FAIL %s seed=%d: %s\n%!" st.w.name seed msg;
      None
  in
  { wall_ns = t1 - t0; t_end = t1; words = w1 -. w0; out }

(* Whole seed cycles until [seconds] have passed and [min_iters] ran.
   [hooks ()] gives each iteration its tracing hooks and a finisher. *)
let loop st ~hooks ~seconds ~min_iters =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if i mod seed_cycle = 0 && i >= min_iters && now_ns () >= deadline then
      List.rev acc
    else begin
      let obs, finish = hooks () in
      let s = iterate st ~obs i in
      finish s;
      if i = seed_cycle - 1 && st.heap_words = 0 then
        st.heap_words <- (Gc.quick_stat ()).top_heap_words;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

let no_hooks () = (untraced, fun (_ : sample) -> ())

let setup st =
  st.w.prepare ();
  for i = 0 to warmup - 1 do
    ignore (iterate st ~obs:untraced i : sample)
  done;
  if st.failed > 0 then fail "%s: set-up iterations failed" st.w.name

(* [setup_s]: wall time from spawning a fresh copy of this program to
   the end of its set-up, median over [setup_probes] processes. *)
let probe_setup w ~base =
  let one () =
    let t0 = now_ns () in
    let pid =
      Unix.create_process Sys.executable_name
        [|
          Sys.executable_name; "--setup-probe"; "--workload"; w.name;
          "--seed"; string_of_int base;
        |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    let _, status = Unix.waitpid [] pid in
    let t1 = now_ns () in
    if status <> Unix.WEXITED 0 then fail "%s: set-up probe failed" w.name;
    float_of_int (t1 - t0) *. 1e-9
  in
  List.init setup_probes (fun _ -> one ())

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; value : float; shown : bool }

let wire_verbs =
  List.init Hope_types.Wire.tag_count Hope_types.Wire.tag_name

type trace_summary = {
  t_samples : sample list;
  t_states : tap_state list;
  t_pause_ns : int;
  t_pause_max_ns : int;
  t_lost : int;
}

let end_to_end ~setup_s ~timed ~st =
  let ok = List.filter_map (fun s -> s.out) timed in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let ops = sum (fun o -> float_of_int o.ops) ok in
  let wall_s = sum (fun s -> float_of_int s.wall_ns *. 1e-9) timed in
  let walls = List.map (fun s -> ms_of_ns s.wall_ns) timed in
  let seeds = sorted (Hashtbl.fold (fun k _ acc -> k :: acc) st.firsts []) in
  let sim_ms =
    ratio
      (List.fold_left (fun a k -> a +. (Hashtbl.find st.firsts k).sim_ms) 0. seeds)
      (float_of_int (List.length seeds))
  in
  let words_per_mib = 1048576. /. float_of_int (Sys.word_size / 8) in
  let m name unit value = { name; unit; value; shown = true } in
  [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "op/s" (ratio ops wall_s);
      m "iter_ms_p50" "ms" (median walls);
      m "mw_per_op" "words/op" (ratio (sum (fun s -> s.words) timed) ops);
      m "heap_peak_mb" "MiB" (float_of_int st.heap_words /. words_per_mib);
      m "msgs_per_op" "msg/op" (ratio (sum (fun o -> float_of_int o.msgs) ok) ops);
      m "sim_ms" "ms_sim" sim_ms;
    ]

let per_layer ~w ~timed ~gc ~trace =
  let ok = List.filter_map (fun s -> s.out) timed in
  let raw = Hashtbl.create 64 and peak = Hashtbl.create 8 in
  List.iter
    (fun o ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace raw k (v +. Option.value ~default:0. (Hashtbl.find_opt raw k)))
        o.raw;
      List.iter
        (fun (k, v) ->
          Hashtbl.replace peak k
            (Float.max v (Option.value ~default:0. (Hashtbl.find_opt peak k))))
        o.peak)
    ok;
  let c k = Option.value ~default:0. (Hashtbl.find_opt raw k) in
  let pk k = Option.value ~default:0. (Hashtbl.find_opt peak k) in
  let ops = List.fold_left (fun a o -> a +. float_of_int o.ops) 0. ok in
  let iters = float_of_int (List.length ok) in
  let per_op k = ratio (c k) ops in
  let wall_s = List.fold_left (fun a s -> a +. float_of_int s.wall_ns *. 1e-9) 0. timed in
  let minor, major, promoted, forced = gc in
  let t_ops =
    List.fold_left
      (fun a s -> match s.out with Some o -> a +. float_of_int o.ops | None -> a)
      0. trace.t_samples
  in
  let charged l =
    List.fold_left (fun a st -> a + st.charged.(l)) 0 trace.t_states
  in
  let t_ms_per_op l = ratio (ms_of_ns (charged l)) t_ops in
  let t_span =
    (* Per tap: its iteration's wall time less the time spent in the tap. *)
    List.fold_left (fun a st -> a + (st.stop - st.start - st.self)) 0 trace.t_states
  in
  let t_attr = charged layer_core + charged layer_net + charged layer_proc + charged layer_shard in
  let t_walls = List.map (fun s -> ms_of_ns s.wall_ns) trace.t_samples in
  let untraced_walls = List.map (fun s -> ms_of_ns s.wall_ns) timed in
  let untraced_p50 = median untraced_walls in
  let sends, tags =
    List.fold_left (fun (a, b) st -> (a + st.sends, b + st.tags)) (0, 0) trace.t_states
  in
  let has l = List.mem l w.layers in
  let m layer name unit value =
    let shown = List.mem layer [ "host"; "gc"; "trace" ] || has layer in
    { name; unit; value = (if shown then value else 0.); shown }
  in
  [ m "host" "iter_ms_tail" "ms" (fst (tail untraced_walls));
    m "sim" "sim.events_per_op" "event/op" (per_op "sim.events");
    m "net" "net.sends_per_op" "msg/op" (per_op "net.user_and_ctl_sends");
    m "net" "net.user_share" "1" (ratio (c "net.user_sends") (c "net.user_and_ctl_sends")) ]
  @ List.map
      (fun v -> m "net" ("net.msgs." ^ v ^ "_per_op") "msg/op" (per_op ("hope.msgs." ^ v)))
      wire_verbs
  @ [
      m "proc" "proc.consumes_per_op" "1/op" (per_op "sched.consumes");
      m "proc" "proc.parks_per_op" "1/op" (per_op "sched.parks");
      m "proc" "proc.untagged_share" "1"
        (ratio (c "sched.untagged_fast_path") (c "sched.consumes"));
      m "proc" "proc.compactions_per_op" "1/op" (per_op "sched.mailbox_compactions");
      m "proc" "proc.poisoned_per_op" "1/op" (per_op "sched.poisoned_messages");
      m "core" "core.intervals_per_op" "1/op" (per_op "hope.intervals_started");
      m "core" "core.finalize_ratio" "1"
        (ratio (c "hope.finalizes") (c "hope.intervals_started"));
      m "core" "core.rolled_per_op" "1/op" (per_op "hope.intervals_rolled");
      m "core" "core.guesses_per_op" "1/op" (per_op "hope.guesses");
      m "core" "core.cycle_cuts_per_op" "1/op" (per_op "hope.cycle_cuts");
      m "core" "core.spec_depth_max" "count" (pk "spec_depth");
      m "core" "core.ido_size_mean" "aid" (ratio (c "ido.sum") (c "ido.count"));
      m "types" "types.tag_size_mean" "aid" (ratio (float_of_int tags) (float_of_int sends));
      m "gov" "gov.escalations" "1/iter" (ratio (c "hope.escalations") iters);
      m "gov" "gov.acquire_waits_per_op" "1/op" (per_op "hope.acquire_waits");
      m "gov" "gov.gated_per_op" "1/op" (per_op "hope.guesses_gated");
      m "gov" "gov.aborts_per_op" "1/op" (per_op "hope.msgs.abort");
      m "shard" "shard.processed_per_committed" "1"
        (ratio (c "shard.processed") (c "shard.committed"));
      m "shard" "shard.stragglers_per_op" "1/op" (per_op "shard.stragglers");
      m "shard" "shard.rolled_back_per_op" "1/op" (per_op "shard.rolled_back");
      m "shard" "shard.annihilation_ratio" "1"
        (ratio (c "shard.annihilations") (c "shard.anti_messages"));
      m "shard" "shard.full_spins_per_op" "1/op" (per_op "shard.full_spins");
      m "shard" "shard.gvt_rounds_per_s" "1/s" (ratio (c "shard.gvt_rounds") wall_s);
      m "shard" "shard.max_rollback_depth" "count" (pk "shard.max_rollback_depth");
      m "gc" "gc.minor_per_op" "1/op" (ratio (float_of_int (minor - forced)) ops);
      m "gc" "gc.major_per_op" "1/op" (ratio (float_of_int major) ops);
      m "gc" "gc.promoted_per_op" "words/op" (ratio promoted ops);
      m "gc" "gc.pause_ms_per_op" "ms/op" (ratio (ms_of_ns trace.t_pause_ns) t_ops);
      m "gc" "gc.pause_ms_max" "ms" (ms_of_ns trace.t_pause_max_ns);
      m "core" "trace.core_ms_per_op" "ms/op" (t_ms_per_op layer_core);
      m "net" "trace.net_ms_per_op" "ms/op" (t_ms_per_op layer_net);
      m "proc" "trace.proc_ms_per_op" "ms/op" (t_ms_per_op layer_proc);
      m "shard" "trace.shard_ms_per_op" "ms/op" (t_ms_per_op layer_shard);
      m "trace" "trace.unattributed_share" "1"
        (1. -. ratio (float_of_int t_attr) (float_of_int t_span));
      m "trace" "trace.overhead_ratio" "1" (ratio (median t_walls) untraced_p50);
    ]

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)
(* ------------------------------------------------------------------ *)

let no_trace =
  { t_samples = []; t_states = []; t_pause_ns = 0; t_pause_max_ns = 0; t_lost = 0 }

(* One seed cycle with every event tapped. Feeds no end-to-end number. *)
let traced_pass st =
  let states = ref [] in
  let hooks () =
    let batch = ref [] in
    let make ~polls =
      let s = new_tap_state ~polls in
      batch := s :: !batch;
      traced_recorder s
    in
    let obs =
      if st.w.domains > 1 then
        { hope = None; shard = Some (fun i -> Some (fst (make ~polls:(i = 0)))) }
      else { hope = Some (make ~polls:true); shard = None }
    in
    let finish (s : sample) =
      List.iter (fun t -> t.stop <- s.t_end) !batch;
      states := !batch @ !states;
      Gc_cursor.poll ()
    in
    (obs, finish)
  in
  let gc_ok =
    match Gc_cursor.resume () with
    | () -> true
    | exception e ->
      Printf.eprintf "note: no Runtime_events ring (%s); GC pauses read 0\n%!"
        (Printexc.to_string e);
      false
  in
  let samples = loop st ~hooks ~seconds:0. ~min_iters:seed_cycle in
  if gc_ok then Gc_cursor.pause ();
  {
    t_samples = samples;
    t_states = !states;
    t_pause_ns = !Gc_cursor.total_ns;
    t_pause_max_ns = !Gc_cursor.max_ns;
    t_lost = !Gc_cursor.lost;
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let nproc () =
  match Unix.open_process_in "nproc" with
  | ic ->
    let n = try String.trim (input_line ic) with End_of_file -> "?" in
    ignore (Unix.close_process_in ic : Unix.process_status);
    n
  | exception Unix.Unix_error _ -> "?"

type result = {
  r_attempted : int;
  r_failed : int;
  r_metrics : metric list;  (** the set the JSON line carries *)
}

let run_workload w ~base ~seconds ~trace =
  let probes = probe_setup w ~base in
  let t_setup = now_ns () in
  let st = { w; base; firsts = Hashtbl.create 8; attempted = 0; failed = 0; heap_words = 0 } in
  setup st;
  let self_setup_s = float_of_int (now_ns () - t_setup) *. 1e-9 in
  st.attempted <- 0;
  let g0 = Gc.quick_stat () in
  let timed = loop st ~hooks:no_hooks ~seconds ~min_iters:min_timed in
  let g1 = Gc.quick_stat () in
  let e2e = end_to_end ~setup_s:(median probes) ~timed ~st in
  let tr = if trace then traced_pass st else no_trace in
  let gc =
    ( g1.minor_collections - g0.minor_collections,
      g1.major_collections - g0.major_collections,
      g1.promoted_words -. g0.promoted_words,
      if w.domains > 1 then 2 * List.length timed else 0 )
  in
  let layers = per_layer ~w ~timed ~gc ~trace:tr in
  let n = List.length timed in
  let _, tail_pct = tail (List.map (fun s -> ms_of_ns s.wall_ns) timed) in
  let digest =
    let seeds = sorted (Hashtbl.fold (fun k _ acc -> k :: acc) st.firsts []) in
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun k -> (Hashtbl.find st.firsts k).exact) seeds)))
  in
  Printf.printf
    "# hope-bench workload=%s base_seed=%d seed_cycle=%d heldout_seed=%d \
     nproc=%s recommended_domain_count=%d domains=%d\n"
    w.name base seed_cycle heldout_seed (nproc ())
    (Domain.recommended_domain_count ()) w.domains;
  Printf.printf "# setup probes (s): %s; this process's own set-up %.3f s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") probes))
    self_setup_s;
  Printf.printf
    "# timed: %d iterations; tail = p%.1f of %d samples; failed %d of %d \
     attempted (fail_ratio %g)\n"
    n tail_pct n st.failed st.attempted
    (ratio (float_of_int st.failed) (float_of_int st.attempted));
  Printf.printf "# exact-count digest of the %d seeds: %s\n"
    (Hashtbl.length st.firsts)
    (if w.domains > 1 then "n/a (racy counts)" else digest);
  if trace then
    Printf.printf
      "# traced: %d iterations, %d tap events; GC ring lost %d events\n"
      (List.length tr.t_samples)
      (List.fold_left (fun a s -> a + s.events) 0 tr.t_states)
      tr.t_lost;
  let show m =
    if m.shown then Printf.printf "%-32s %16.6g %s\n" m.name m.value m.unit
    else Printf.printf "%-32s %16s %s (layer not run)\n" m.name "-" m.unit
  in
  List.iter show e2e;
  if trace then List.iter show layers;
  {
    r_attempted = st.attempted;
    r_failed = st.failed;
    r_metrics = (if trace then layers else e2e);
  }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, m) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number m.value) m.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME|all --seed N --seconds S --trace 0|1\n\
     workloads: report-wan phold-hope occ-hotspot phold-shard";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--setup-probe" :: rest -> parse (("setup-probe", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k d =
    match get k with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let base = int_opt "seed" 1 in
  let seconds = float_of_int (int_opt "seconds" 10) in
  let trace = int_opt "trace" 0 = 1 in
  let chosen =
    match get "workload" with
    | Some "all" -> workloads
    | Some n -> (
      match List.find_opt (fun (w : workload) -> w.name = n) workloads with
      | Some w -> [ w ]
      | None -> usage ())
    | None -> usage ()
  in
  if get "setup-probe" <> None then begin
    (* A child of [probe_setup]: set up, then exit. *)
    let w = List.hd chosen in
    let st = { w; base; firsts = Hashtbl.create 8; attempted = 0; failed = 0; heap_words = 0 } in
    match setup st with
    | () -> exit 0
    | exception e ->
      prerr_endline (Printexc.to_string e);
      exit 1
  end;
  let prefix = List.length chosen > 1 in
  let results =
    List.map
      (fun w ->
        match run_workload w ~base ~seconds ~trace with
        | r -> (w, Some r)
        | exception e ->
          Printf.eprintf "FAIL %s set-up: %s\n%!" w.name (Printexc.to_string e);
          (w, None))
      chosen
  in
  let attempted =
    List.fold_left
      (fun a (_, r) -> match r with Some r -> a + r.r_attempted | None -> a)
      0 results
  and failed =
    List.fold_left
      (fun a (_, r) -> match r with Some r -> a + r.r_failed | None -> a + 1)
      0 results
  in
  if attempted = 0 then begin
    prerr_endline "hope-bench: no iteration ran";
    exit 1
  end;
  let metrics =
    List.concat_map
      (fun ((w : workload), r) ->
        match r with
        | None -> []
        | Some r ->
          List.map
            (fun m -> ((if prefix then w.name ^ "/" ^ m.name else m.name), m))
            r.r_metrics)
      results
  in
  print_json ~correct:(failed = 0) ~attempted ~failed metrics
