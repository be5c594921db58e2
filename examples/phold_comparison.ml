(* Time Warp vs HOPE on the same discrete-event simulation (PHOLD).

   §2 of the paper positions Time Warp as prior optimism with one
   hard-wired assumption ("messages arrive in timestamp order") and HOPE
   as the generalisation. Here the same PHOLD model runs three ways - a
   sequential oracle, a dedicated Time Warp, and an optimistic simulator
   written against the HOPE API - and must produce identical results.
   The comparison shows what the generality costs.

   Run with:  dune exec examples/phold_comparison.exe *)

module P = Hope_workloads.Phold

let show name (o : P.outcome) =
  Printf.printf "%-12s events=%4d executed=%4d rollbacks=%4d messages=%7d physical=%7.2f ms\n"
    name o.P.handled_total o.P.processed o.P.rollbacks o.P.messages
    (o.P.physical_time *. 1e3)

let () =
  let p = P.default_params in
  Printf.printf
    "PHOLD: %d LPs, %d jobs, %.0f%% remote hops, horizon %.0f virtual seconds\n\n"
    p.P.n_lps p.P.jobs (100.0 *. p.P.remote_prob) p.P.horizon;
  let seq = P.run_sequential p in
  let tw, _ = P.run_timewarp p in
  let hope = P.run_hope p in
  show "sequential" seq;
  show "time-warp" tw;
  show "hope" hope;
  Printf.printf "\nchecksum agreement: time-warp=%b hope=%b\n"
    (tw.P.checksums = seq.P.checksums)
    (hope.P.checksums = seq.P.checksums);
  Printf.printf
    "\nBoth optimistic engines compute exactly the sequential result. The\n\
     dedicated Time Warp pays anti-messages; general-purpose HOPE pays its\n\
     AID traffic - the price of supporting *any* assumption, not just\n\
     timestamp order (the trade-off §2 describes).\n"
