(* Tests for Time Warp on the core's simulated wire (experiment E7's
   engine): correctness against the sequential reference across seeds
   and parameters, plus targeted straggler and anti-message scenarios. *)

module Engine = Hope_sim.Engine
module Shard = Hope_shard.Shard
module Latency = Hope_net.Latency
module Phold = Hope_workloads.Phold

let test name f = Alcotest.test_case name `Quick f

(* A trivially checkable model: each LP counts events and records the
   timestamps it processed, in order. *)
type probe = { count : int; stamps : float list }

let probe_spec ?(horizon = 1e9) ~n_lps ~next seeds =
  {
    Shard.model =
      {
        Shard.init = (fun _ -> { count = 0; stamps = [] });
        handle =
          (fun ~lp ~ts st n ->
            ({ count = st.count + 1; stamps = ts :: st.stamps }, next ~lp ~ts n));
      };
    n_lps;
    horizon;
    seeds;
    digest = Fun.id;
    dummy = -1;
  }

(* [n] more hops round the ring of LPs, [hop] virtual seconds apart. *)
let chain ~n_lps ~hop ~lp ~ts n =
  if n <= 0 then [] else [ ((lp + 1) mod n_lps, ts +. hop, n - 1) ]

let simulate ?(latency = Latency.lan) ?(event_cost = 10e-6) spec =
  let engine = Engine.create ~seed:5 () in
  Shard.simulate ~engine ~latency ~event_cost ~gvt_interval:1e-3 spec

let test_single_chain_in_order () =
  let r =
    simulate (probe_spec ~n_lps:3 ~next:(chain ~n_lps:3 ~hop:1.0) [ (0, 1.0, 8) ])
  in
  (* 9 events total, one per LP per visit, timestamps 1..9. *)
  Alcotest.(check int) "committed all" 9 r.Shard.committed;
  let all_stamps =
    List.concat_map (fun i -> List.rev r.Shard.states.(i).stamps) [ 0; 1; 2 ]
  in
  Alcotest.(check int) "9 stamps" 9 (List.length all_stamps);
  List.iter
    (fun i ->
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a > b && decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "per-LP timestamps strictly increase" true
        (decreasing r.Shard.states.(i).stamps))
    [ 0; 1; 2 ]

let test_straggler_forced () =
  (* LP 0 executes its seed at ts=10 after 1 µs and sends downstream;
     LP 1's seed at ts=0.5 sends LP 0 an event at ts=1, which crosses a
     1 ms wire — a guaranteed straggler once LP 0 has raced ahead. *)
  let spec =
    probe_spec ~n_lps:2 ~next:(chain ~n_lps:2 ~hop:0.5)
      [ (0, 10.0, 3); (1, 0.5, 1) ]
  in
  let r = simulate ~latency:(Latency.Constant 1e-3) ~event_cost:1e-6 spec in
  Alcotest.(check bool) "a rollback happened" true (r.Shard.rollbacks >= 1);
  Alcotest.(check bool) "an anti-message went out" true (r.Shard.anti_messages >= 1);
  let states, events = Shard.sequential spec in
  Alcotest.(check int) "committed the sequential event set" events r.Shard.committed;
  Alcotest.(check (list (float 1e-9))) "LP0 processed in timestamp order"
    [ 1.0; 10.0; 11.0 ] (List.rev r.Shard.states.(0).stamps);
  Alcotest.(check (list (float 1e-9))) "LP1 as in the sequential run"
    (List.rev states.(1).stamps) (List.rev r.Shard.states.(1).stamps)

let test_phold_matches_sequential_many_seeds () =
  List.iter
    (fun seed ->
      List.iter
        (fun remote_prob ->
          let p =
            { Phold.default_params with remote_prob; jobs = 6; horizon = 8.0 }
          in
          let seq = Phold.run_sequential p in
          let tw, _ = Phold.run_timewarp ~seed p in
          Alcotest.(check bool)
            (Printf.sprintf "checksums agree (seed=%d remote=%.1f)" seed remote_prob)
            true
            (tw.Phold.checksums = seq.Phold.checksums);
          Alcotest.(check int)
            (Printf.sprintf "event counts agree (seed=%d remote=%.1f)" seed
               remote_prob)
            seq.Phold.handled_total tw.Phold.handled_total)
        [ 0.2; 0.8 ])
    [ 1; 2; 3; 4; 5 ]

let test_phold_hope_matches_sequential () =
  List.iter
    (fun seed ->
      let p = { Phold.default_params with jobs = 5; horizon = 6.0 } in
      let seq = Phold.run_sequential p in
      let hope = Phold.run_hope ~seed p in
      Alcotest.(check bool)
        (Printf.sprintf "hope checksums agree (seed=%d)" seed)
        true
        (hope.Phold.checksums = seq.Phold.checksums))
    [ 1; 2; 3 ]

let test_output_timestamp_validation () =
  let bad =
    probe_spec ~n_lps:1 ~next:(fun ~lp:_ ~ts _ -> [ (0, ts, 0) ]) [ (0, 1.0, 0) ]
  in
  let rejected f =
    match f () with
    | _ -> false
    | exception Shard.Shard_failure { exn = Invalid_argument _; lp = 0; _ } -> true
  in
  Alcotest.(check bool) "zero-delay output rejected on the wire" true
    (rejected (fun () -> simulate bad));
  Alcotest.(check bool) "zero-delay output rejected on the rings" true
    (rejected (fun () -> Shard.run bad));
  Alcotest.(check bool) "and by the sequential reference" true
    (try
       ignore (Shard.sequential bad);
       false
     with Invalid_argument _ -> true)

let test_sequential_reference () =
  let states, events =
    Shard.sequential
      (probe_spec ~n_lps:2 ~next:(chain ~n_lps:2 ~hop:1.0) [ (0, 1.0, 4) ])
  in
  Alcotest.(check int) "five events" 5 events;
  Alcotest.(check int) "lp0 handled 3" 3 states.(0).count;
  Alcotest.(check int) "lp1 handled 2" 2 states.(1).count

let test_horizon_cuts_outputs () =
  let spec =
    probe_spec ~horizon:3.0 ~n_lps:2 ~next:(chain ~n_lps:2 ~hop:1.0) [ (0, 1.0, 100) ]
  in
  let _, events = Shard.sequential spec in
  Alcotest.(check int) "only events within the horizon" 3 events;
  Alcotest.(check int) "Time Warp commits the same" 3 (simulate spec).Shard.committed

let () =
  Alcotest.run "timewarp"
    [
      ( "mechanics",
        [
          test "single chain processes in order" test_single_chain_in_order;
          test "forced straggler rolls back" test_straggler_forced;
          test "output timestamp validated" test_output_timestamp_validation;
        ] );
      ( "reference",
        [
          test "sequential reference" test_sequential_reference;
          test "horizon cuts outputs" test_horizon_cuts_outputs;
        ] );
      ( "agreement",
        [
          test "PHOLD matches sequential across seeds"
            test_phold_matches_sequential_many_seeds;
          test "HOPE-expressed PHOLD matches sequential"
            test_phold_hope_matches_sequential;
        ] );
    ]
