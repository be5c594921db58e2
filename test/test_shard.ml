(* Tests for the sharded multicore engine: the SPSC mailbox ring, the
   shard context, multi-engine telemetry installs, the sharded Time Warp
   executor's determinism contract (same commit set and byte-identical
   merged trace at any domain count), and the scheduler's cross-shard
   transport hooks. *)

module Mailbox = Hope_shard.Mailbox
module Shard = Hope_shard.Shard
module Context = Hope_sim.Context
module Rng = Hope_sim.Rng
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Telemetry = Hope_sim.Telemetry
module Recorder = Hope_obs.Recorder
module Obs = Hope_obs.Obs
module Phold = Hope_workloads.Phold
module Scheduler = Hope_proc.Scheduler
module Envelope = Hope_types.Envelope
module Proc_id = Hope_types.Proc_id

let test name f = Alcotest.test_case name `Quick f

(* ----------------------------- Mailbox ---------------------------- *)

let test_mailbox_fifo_wraparound () =
  let m = Mailbox.create ~capacity:4 ~dummy:(-1) () in
  Alcotest.(check int) "power-of-two capacity" 4 (Mailbox.capacity m);
  Alcotest.(check bool) "starts empty" true (Mailbox.is_empty m);
  (* many push/pop cycles so the cursors lap the ring repeatedly *)
  let next = ref 0 in
  for round = 1 to 50 do
    let burst = 1 + (round mod 4) in
    for _ = 1 to burst do
      Alcotest.(check bool) "push accepted" true (Mailbox.try_push m !next);
      incr next
    done;
    Alcotest.(check int) "length" burst (Mailbox.length m);
    let expect_base = !next - burst in
    for k = 0 to burst - 1 do
      match Mailbox.pop m with
      | Some v -> Alcotest.(check int) "FIFO across wraps" (expect_base + k) v
      | None -> Alcotest.fail "unexpected empty"
    done
  done;
  Alcotest.(check (option int)) "drained" None (Mailbox.pop m);
  (* full ring refuses; pop frees exactly one slot *)
  for i = 0 to 3 do
    Alcotest.(check bool) "fill" true (Mailbox.try_push m i)
  done;
  Alcotest.(check bool) "full refuses" false (Mailbox.try_push m 99);
  Alcotest.(check (option int)) "head out" (Some 0) (Mailbox.pop m);
  Alcotest.(check bool) "slot freed" true (Mailbox.try_push m 4);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Mailbox.create: capacity must be positive") (fun () ->
      ignore (Mailbox.create ~capacity:0 ~dummy:0 ()))

let test_mailbox_cross_domain () =
  (* A real producer domain against the calling consumer domain, with a
     ring far smaller than the stream so back-pressure engages. *)
  let n = 20_000 in
  let m = Mailbox.create ~capacity:64 ~dummy:(-1) () in
  let poison = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Mailbox.push m i ~poison ~while_waiting:Domain.cpu_relax
        done)
  in
  let received = ref 0 and in_order = ref true in
  while !received < n do
    match Mailbox.pop m with
    | Some v ->
      if v <> !received then in_order := false;
      incr received
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "sequence preserved across domains" true !in_order;
  Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty m)

let test_mailbox_poisoned_push () =
  (* A producer spinning on a full ring whose consumer died must get
     out once the poison flag is set. *)
  let m = Mailbox.create ~capacity:1 ~dummy:(-1) () in
  Alcotest.(check bool) "fill" true (Mailbox.try_push m 0);
  let poison = Atomic.make false in
  let spins = Atomic.make 0 in
  let producer =
    Domain.spawn (fun () ->
        match
          Mailbox.push m 1 ~poison ~while_waiting:(fun () -> Atomic.incr spins)
        with
        | () -> false
        | exception Mailbox.Closed -> true)
  in
  while Atomic.get spins = 0 do
    Domain.cpu_relax ()
  done;
  Atomic.set poison true;
  Alcotest.(check bool) "blocked push raised Closed" true (Domain.join producer);
  Alcotest.(check (option int)) "ring kept its element" (Some 0) (Mailbox.pop m)

(* ----------------------------- Context ---------------------------- *)

let test_context_owner_and_streams () =
  Alcotest.(check int) "owner" 2 (Context.owner ~shards:4 6);
  Alcotest.(check int) "single shard owns all" 0 (Context.owner ~shards:1 6);
  (* per-shard RNG streams: deterministic in (seed, shard_id), pairwise
     distinct across shards *)
  let stream shard_id =
    let ctx = Context.make ~seed:7 ~shards:4 ~shard_id () in
    List.init 8 (fun _ -> Rng.bits64 (Context.rng ctx))
  in
  let streams = List.init 4 stream in
  List.iteri
    (fun i si ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d stream reproducible" i)
        true
        (si = stream i);
      List.iteri
        (fun j sj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "shards %d/%d streams differ" i j)
              true (si <> sj))
        streams)
    streams;
  Alcotest.check_raises "bad shard_id"
    (Invalid_argument "Context.make: shard_id out of range") (fun () ->
      ignore (Context.make ~shards:2 ~shard_id:2 ()))

(* ------------------------- Telemetry merge ------------------------ *)

let test_telemetry_multi_engine_install () =
  let tele = Telemetry.create ~recorder:(Recorder.create ()) () in
  let e1 = Engine.create ~seed:1 () and e2 = Engine.create ~seed:2 () in
  Metrics.add (Metrics.counter (Engine.metrics e1) "shard.events") 3;
  Metrics.add (Metrics.counter (Engine.metrics e2) "shard.events") 4;
  (* idempotent: re-installing an engine must not double-count it *)
  Telemetry.install tele e1;
  Telemetry.install tele e1;
  Telemetry.install tele e2;
  Telemetry.install tele e2;
  let fams =
    List.filter_map
      (function
        | Hope_obs.Export_openmetrics.Counter { name; labels = []; value }
          when name = "shard.events" ->
          Some value
        | _ -> None)
      (Telemetry.instruments tele)
  in
  Alcotest.(check (list int)) "one merged family, summed" [ 7 ] fams;
  (* the rendered exposition also carries the family exactly once *)
  let om = Telemetry.openmetrics tele in
  let occurrences sub =
    let n = String.length om and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub om i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE line" 1
    (occurrences "# TYPE shard_events_total counter");
  Alcotest.(check int) "one sample line" 1 (occurrences "shard_events_total 7")

(* ------------------------ Sharded executor ------------------------ *)

let small_params =
  { Phold.default_params with n_lps = 5; jobs = 12; horizon = 6.0 }

let test_shard_matches_sequential () =
  (* The second parameter set seeds several jobs past the horizon. *)
  List.iter
    (fun p ->
      let seq = Phold.run_sequential p in
      List.iter
        (fun domains ->
          let o, r = Phold.run_parallel ~domains p in
          Alcotest.(check (array int))
            (Printf.sprintf "checksums at %d domains" domains)
            seq.Phold.checksums o.Phold.checksums;
          Alcotest.(check int)
            (Printf.sprintf "committed events at %d domains" domains)
            seq.Phold.handled_total o.Phold.handled_total;
          Alcotest.(check int)
            "commit records = committed events" o.Phold.handled_total
            r.Shard.committed;
          Alcotest.(check int) "domains recorded" domains r.Shard.domains)
        [ 1; 2; 4 ])
    [ small_params; { small_params with jobs = 64; horizon = 2.0 } ]

let test_shard_digest_stable_across_domains () =
  let digest domains =
    let _, r = Phold.run_parallel ~domains small_params in
    Shard.commits_digest r
  in
  let d1 = digest 1 in
  Alcotest.(check int) "2 domains" d1 (digest 2);
  Alcotest.(check int) "4 domains" d1 (digest 4);
  Alcotest.(check int) "3 domains" d1 (digest 3)

let merged_trace domains =
  let obs = Recorder.create () in
  Recorder.enable obs;
  let _, r = Phold.run_parallel ~domains small_params in
  Shard.merge_into obs r;
  Obs.export_string Obs.Chrome (Recorder.events obs)

let test_merged_trace_byte_identical () =
  let t1 = merged_trace 1 in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 100);
  Alcotest.(check string) "2 domains" t1 (merged_trace 2);
  Alcotest.(check string) "4 domains" t1 (merged_trace 4)

(* ------------------- cross-shard rollback provenance --------------- *)

let count_substring needle hay =
  let n = String.length hay and m = String.length needle in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub hay i m = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* The provenance artifacts (GraphML commit DAG, Chrome flow events)
   derive only from the merged commit stream, so they inherit its
   determinism contract: byte-identical at any domain count. *)
let provenance_exports domains =
  let obs = Recorder.create () in
  Recorder.enable obs;
  let _, r = Phold.run_parallel ~domains small_params in
  Shard.merge_into obs r;
  let events = Recorder.events obs in
  (Obs.export_string Obs.Graphml events, Obs.export_string Obs.Chrome events)

let test_provenance_byte_identical () =
  let g1, c1 = provenance_exports 1 in
  Alcotest.(check bool) "commit nodes present" true
    (count_substring "<node id=\"c:0\">" g1 > 0);
  Alcotest.(check bool) "caused-by edges present" true
    (count_substring ">caused-by<" g1 > 0);
  Alcotest.(check bool) "flow starts present" true
    (count_substring "\"ph\":\"s\"" c1 > 0);
  Alcotest.(check bool) "flow finishes present" true
    (count_substring "\"bp\":\"e\"" c1 > 0);
  let g2, c2 = provenance_exports 2 in
  let g4, c4 = provenance_exports 4 in
  Alcotest.(check string) "graphml at 2 domains" g1 g2;
  Alcotest.(check string) "graphml at 4 domains" g1 g4;
  Alcotest.(check string) "chrome at 2 domains" c1 c2;
  Alcotest.(check string) "chrome at 4 domains" c1 c4

(* ------------------- labeled shard telemetry ---------------------- *)

let shard_openmetrics ~domains =
  let obs = Recorder.create () in
  let tele = Telemetry.create ~recorder:obs () in
  let _, r = Phold.run_parallel ~domains small_params in
  Shard.merge_into obs r;
  Telemetry.absorb_shards tele ~engines:r.Shard.engines ~samples:r.Shard.samples;
  (Telemetry.openmetrics tele, r)

let test_labeled_export_per_shard () =
  let om, r = shard_openmetrics ~domains:4 in
  Alcotest.(check bool) "telemetry knows it absorbed shards" true
    (Telemetry.has_shards (Telemetry.create ~recorder:(Recorder.create ()) ())
     = false);
  (* every shard contributes a labeled entry under one family header *)
  Alcotest.(check int) "one events family" 1
    (count_substring "# TYPE shard_events_total counter" om);
  for shard = 0 to 3 do
    if
      count_substring
        (Printf.sprintf "shard_events_total{shard=\"%d\"}" shard)
        om
      = 0
    then Alcotest.failf "no labeled entry for shard %d" shard
  done;
  (* the unlabeled aggregate coexists with the labels and equals the
     executor's own total *)
  Alcotest.(check int) "aggregate events" 1
    (count_substring
       (Printf.sprintf "shard_events_total %d" r.Shard.processed)
       om);
  (* GVT trajectory series landed *)
  Alcotest.(check bool) "gvt series" true (count_substring "hope_gvt " om > 0);
  Alcotest.(check bool) "per-shard lvt series" true
    (count_substring "hope_shard_lvt{shard=\"0\"}" om > 0)

let test_labeled_export_deterministic () =
  (* domains = 1 runs the whole executor on the calling domain, so even
     the per-run side is reproducible — byte-identical export. *)
  let om1, _ = shard_openmetrics ~domains:1 in
  let om2, _ = shard_openmetrics ~domains:1 in
  Alcotest.(check string) "byte-identical at 1 domain" om1 om2

(* ------------------- wasted-event attribution --------------------- *)

let qcheck_attribution_sums =
  QCheck.Test.make
    ~name:
      "shard: wasted-event attribution sums to the executor's rolled-back \
       total at any domain count"
    ~count:12
    QCheck.(
      quad (int_range 1 6) (int_range 1 10) (int_range 0 100) small_int)
    (fun (n_lps, jobs, remote_pct, seed) ->
      let p =
        {
          Phold.default_params with
          n_lps;
          jobs;
          remote_prob = float_of_int remote_pct /. 100.;
          horizon = 4.0;
        }
      in
      List.for_all
        (fun domains ->
          let _, r = Phold.run_parallel ~domains ~seed p in
          let attributed =
            List.fold_left (fun acc (_, n) -> acc + n) 0 r.Shard.wasted_by_root
          in
          (* every undone execution is attributed to exactly one root *)
          attributed = r.Shard.rolled_back
          && List.for_all (fun (_, n) -> n > 0) r.Shard.wasted_by_root
          (* roots identify real shards (or -1 for local/seed causes) *)
          && List.for_all
               (fun ((pr : Shard.provenance), _) ->
                 pr.Shard.p_shard >= -1 && pr.Shard.p_shard < domains)
               r.Shard.wasted_by_root)
        [ 1; 2; 4 ])

let qcheck_shard_deterministic =
  QCheck.Test.make
    ~name:
      "shard: random phold commits the sequential event set with an \
       identical merge on the wire and at 1, 2 and 4 domains"
    ~count:12
    QCheck.(
      quad (int_range 1 6) (int_range 1 10) (int_range 0 100) small_int)
    (fun (n_lps, jobs, remote_pct, seed) ->
      let p =
        {
          Phold.default_params with
          n_lps;
          jobs;
          remote_prob = float_of_int remote_pct /. 100.;
          horizon = 4.0;
        }
      in
      let seq = Phold.run_sequential p in
      let runs =
        List.map
          (fun run ->
            let obs = Recorder.create () in
            Recorder.enable obs;
            let o, r = run () in
            Shard.merge_into obs r;
            (o, r, Obs.export_string Obs.Chrome (Recorder.events obs)))
          [
            (fun () -> Phold.run_timewarp ~seed p);
            (fun () -> Phold.run_parallel ~domains:1 ~seed p);
            (fun () -> Phold.run_parallel ~domains:2 ~seed p);
            (fun () -> Phold.run_parallel ~domains:4 ~seed p);
          ]
      in
      match runs with
      | (ow, rw, tw) :: rest ->
        ow.Phold.handled_total = seq.Phold.handled_total
        && List.for_all
             (fun (o, r, t) ->
               o.Phold.checksums = seq.Phold.checksums
               && ow.Phold.checksums = seq.Phold.checksums
               && Shard.commits_digest r = Shard.commits_digest rw
               && t = tw)
             rest
      | [] -> false)

(* ---------------------- failure containment ----------------------- *)

(* PHOLD whose model raises on every event of [bad_lp]. *)
let raising_spec ~bad_lp =
  let base = Phold.shard_spec small_params in
  let handle ~lp ~ts st job =
    if lp = bad_lp then failwith "boom" else base.Shard.model.Shard.handle ~lp ~ts st job
  in
  { base with Shard.model = { base.Shard.model with Shard.handle } }

let check_failure ~domains ~bad_lp spec =
  match Shard.run ~domains spec with
  | _ -> Alcotest.failf "no failure at %d domains" domains
  | exception Shard.Shard_failure { shard; lp; exn } ->
    let what = Printf.sprintf "LP %d at %d domains" bad_lp domains in
    Alcotest.(check int) ("shard of " ^ what) (Context.owner ~shards:domains bad_lp) shard;
    Alcotest.(check int) ("lp of " ^ what) bad_lp lp;
    Alcotest.(check bool) ("original exception of " ^ what) true (exn = Failure "boom")

let test_failure_typed () =
  List.iter
    (fun domains ->
      List.iter
        (fun bad_lp -> check_failure ~domains ~bad_lp (raising_spec ~bad_lp))
        [ 0; 1 ])
    [ 1; 2; 4 ]

let test_failure_joins_domains () =
  (* OCaml caps live domains at 128: a run that leaked its 3 workers on
     failure would exhaust the cap well before 48 runs. *)
  for i = 1 to 48 do
    let bad_lp = i mod 2 in
    check_failure ~domains:4 ~bad_lp (raising_spec ~bad_lp)
  done

let test_failure_unblocks_producer () =
  (* LP 0 answers its seed with a burst far larger than a ring; LP 1
     takes long enough over its first event for the ring into its shard
     to fill, then raises. Shard 0 is left spinning on a full ring whose
     consumer is gone. *)
  let spec =
    {
      Shard.model =
        {
          Shard.init = (fun _ -> ());
          handle =
            (fun ~lp ~ts () n ->
              if lp = 1 then begin
                Unix.sleepf 0.05;
                failwith "boom"
              end
              else ((), List.init n (fun i -> (1, ts +. 1. +. float_of_int i, 0))));
        };
      n_lps = 2;
      horizon = 1e9;
      seeds = [ (0, 0.5, 20_000); (1, 0.1, 0) ];
      digest = Fun.id;
      dummy = -1;
    }
  in
  List.iter (fun domains -> check_failure ~domains ~bad_lp:1 spec) [ 1; 2; 4 ]

let test_failure_on_the_wire () =
  match
    Shard.simulate ~engine:(Engine.create ()) ~latency:Hope_net.Latency.lan
      ~event_cost:1e-6 ~gvt_interval:1e-3 (raising_spec ~bad_lp:3)
  with
  | _ -> Alcotest.fail "no failure on the wire"
  | exception Shard.Shard_failure { shard = 3; lp = 3; exn = Failure _ } -> ()

(* --------------------- Scheduler shard transport ------------------- *)

let test_scheduler_id_striping_validation () =
  let engine = Engine.create ~seed:1 () in
  Alcotest.check_raises "zero stride"
    (Invalid_argument "Scheduler.create: msg_id_stride must be positive")
    (fun () -> ignore (Scheduler.create ~engine ~msg_id_stride:0 ()));
  Alcotest.check_raises "base out of range"
    (Invalid_argument "Scheduler.create: msg_id_base must be in [0, stride)")
    (fun () ->
      ignore (Scheduler.create ~engine ~msg_id_base:2 ~msg_id_stride:2 ()))

(* The egress/ingress hooks end to end on the real HOPE runtime: divert
   every user/cancel envelope bound for an odd pid through a simulated
   shard transport (re-injected via [deliver_remote] after a flat extra
   latency), which makes those deliveries stragglers. The run must
   still quiesce with the sequential checksums — the late deliveries
   deny the optimistic no-straggler guesses and the journal machinery
   rolls the affected LPs back — and the diverted ids must stripe like
   a shard's ([fresh_msg_id] base/stride contract). *)
let test_remote_route_integration () =
  let p =
    { Phold.default_params with n_lps = 4; jobs = 8; horizon = 4.0 }
  in
  let diverted = ref 0 in
  let on_setup rt =
    let sched = Hope_core.Runtime.scheduler rt in
    Scheduler.set_remote_route sched (fun ~src:_ ~dst env ->
        let remote =
          Proc_id.to_int dst mod 2 = 1
          &&
          match env.Envelope.payload with
          | Envelope.User _ | Envelope.Cancel _ -> true
          | Envelope.Control _ -> false
        in
        if remote then begin
          incr diverted;
          Scheduler.deliver_remote sched ~delay:0.05 env
        end;
        remote)
  in
  let seq = Phold.run_sequential p in
  let o = Phold.run_hope ~on_setup p in
  Alcotest.(check bool) "some envelopes took the shard path" true (!diverted > 0);
  Alcotest.(check bool) "late deliveries caused rollbacks" true
    (o.Phold.rollbacks > 0);
  Alcotest.(check (array int)) "checksums survive the diversion"
    seq.Phold.checksums o.Phold.checksums;
  Alcotest.(check int) "event set intact" seq.Phold.handled_total
    o.Phold.handled_total

let () =
  Alcotest.run "shard"
    [
      ( "mailbox",
        [
          test "FIFO across wraparound, full/empty edges"
            test_mailbox_fifo_wraparound;
          test "cross-domain SPSC under back-pressure" test_mailbox_cross_domain;
          test "poison releases a blocked producer" test_mailbox_poisoned_push;
        ] );
      ( "context",
        [ test "owner map and per-shard rng streams" test_context_owner_and_streams ] );
      ( "telemetry",
        [ test "multi-engine install merges, idempotently" test_telemetry_multi_engine_install ] );
      ( "executor",
        [
          test "matches the sequential reference at 1/2/4 domains"
            test_shard_matches_sequential;
          test "commit digest is domain-count independent"
            test_shard_digest_stable_across_domains;
          test "merged chrome trace is byte-identical"
            test_merged_trace_byte_identical;
          QCheck_alcotest.to_alcotest qcheck_shard_deterministic;
        ] );
      ( "observability",
        [
          test "provenance exports are byte-identical across domains"
            test_provenance_byte_identical;
          test "labeled per-shard openmetrics families"
            test_labeled_export_per_shard;
          test "labeled export deterministic at 1 domain"
            test_labeled_export_deterministic;
          QCheck_alcotest.to_alcotest qcheck_attribution_sums;
        ] );
      ( "failure",
        [
          test "a raising LP on shard 0 or 1 is a typed error at 1/2/4 domains"
            test_failure_typed;
          test "failed runs join every domain" test_failure_joins_domains;
          test "a producer blocked on a dead consumer's ring gets out"
            test_failure_unblocks_producer;
          test "a raising LP on the simulated wire is a typed error"
            test_failure_on_the_wire;
        ] );
      ( "transport",
        [
          test "msg-id striping validation" test_scheduler_id_striping_validation;
          test "remote route + deliver_remote end to end"
            test_remote_route_integration;
        ] );
    ]
