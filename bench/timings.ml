(* E12 — Bechamel micro-timings of the core operations, one Test.make per
   experiment table so the cost of regenerating each table is itself
   measured, plus the primitive kernels (Chen partition, YDS, PD arrival
   processing, dual evaluation).

   Every estimate is also emitted as a structured Speedscale_obs record
   (id "E12/<test-name>", kind Timing), so --json files carry the
   micro-timings. *)

open Bechamel
open Speedscale_model

let pd_run ~machines ~n =
  let inst = Harness.random_instance ~alpha:2.0 ~machines ~seed:9 ~n in
  Staged.stage (fun () -> ignore (Speedscale_core.Pd.run inst))

let chen_kernel ~p =
  let st = Speedscale_util.Rand.make 5 in
  let loads =
    List.init p (fun i -> (i, Speedscale_util.Rand.uniform st ~lo:0.1 ~hi:5.0))
  in
  Staged.stage (fun () ->
      let t = Speedscale_chen.Chen.build ~machines:8 ~length:1.0 loads in
      ignore (Speedscale_chen.Chen.energy (Power.make 3.0) t))

let yds_kernel ~n =
  let inst = Harness.random_must_finish ~alpha:2.0 ~machines:1 ~seed:4 ~n in
  let jobs = Array.to_list inst.jobs in
  Staged.stage (fun () ->
      ignore (Speedscale_single.Yds.energy inst.power jobs))

let dual_kernel ~n =
  let inst = Harness.random_instance ~alpha:2.0 ~machines:4 ~seed:3 ~n in
  let r = Speedscale_core.Pd.run inst in
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  Staged.stage (fun () ->
      ignore (Speedscale_solver.Dual.evaluate inst tl ~lambda:r.lambda))

let flow_kernel ~n =
  let inst = Harness.random_must_finish ~alpha:2.0 ~machines:4 ~seed:6 ~n in
  Staged.stage (fun () ->
      ignore (Speedscale_flow.Feasibility.min_speed_cap inst))

let opt_exact_kernel ~n =
  let inst = Harness.random_instance ~alpha:2.0 ~machines:1 ~seed:2 ~n in
  Staged.stage (fun () -> ignore (Speedscale_multi.Opt.solve inst))

let replay_kernel ~n =
  let inst = Harness.random_instance ~alpha:2.0 ~machines:4 ~seed:8 ~n in
  let r = Speedscale_core.Pd.run inst in
  Staged.stage (fun () ->
      ignore (Speedscale_engine.Executor.replay inst r.schedule))

let tests =
  Test.make_grouped ~name:"speedscale"
    [
      Test.make ~name:"pd-arrivals-n20-m1" (pd_run ~machines:1 ~n:20);
      Test.make ~name:"pd-arrivals-n100-m1" (pd_run ~machines:1 ~n:100);
      Test.make ~name:"pd-arrivals-n100-m8" (pd_run ~machines:8 ~n:100);
      Test.make ~name:"chen-interval-p100" (chen_kernel ~p:100);
      Test.make ~name:"chen-interval-p1000" (chen_kernel ~p:1000);
      Test.make ~name:"yds-n30" (yds_kernel ~n:30);
      Test.make ~name:"dual-certificate-n50" (dual_kernel ~n:50);
      Test.make ~name:"min-speed-cap-n24-m4" (flow_kernel ~n:24);
      Test.make ~name:"opt-exact-n10-m1" (opt_exact_kernel ~n:10);
      Test.make ~name:"replay-n50-m4" (replay_kernel ~n:50);
    ]

let run ?(smoke = false) () =
  Harness.section "E12" "Bechamel micro-timings (ns per run, OLS estimate)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    (* smoke: one repetition batch with a tiny quota, just enough to prove
       the pipeline runs end to end; numbers are meaningless. *)
    if smoke then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.005) ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Some est
        | _ -> None
      in
      (match est with
      | Some est ->
        Harness.out "%-40s %14.0f ns/run  (%.3f ms)\n" name est (est /. 1e6)
      | None -> Harness.out "%-40s (no estimate)\n" name);
      Harness.add_record
        (* slint: allow taint-nondet -- audited: the benchmark name set is fixed; Hashtbl.fold only perturbs order and rows are sorted before emission *)
        (Speedscale_obs.Record.make
           ~id:(Printf.sprintf "E12/%s" name)
           ~timing:
             { Speedscale_obs.Record.no_timing with ns_per_run = est }
           Speedscale_obs.Record.Timing))
    (List.sort compare rows);
  (* Deterministic companion to the pd-arrivals timings: the same
     workload's per-arrival work counters.  Machine-independent, so they
     show algorithmic drift (extra probes, breakpoint blow-up) even where
     raw nanoseconds are too noisy to read. *)
  let inst = Harness.random_instance ~alpha:2.0 ~machines:8 ~seed:9 ~n:100 in
  let pd =
    Speedscale_core.Pd.create ~power:inst.Instance.power
      ~machines:inst.Instance.machines ()
  in
  Array.iter
    (fun j -> ignore (Speedscale_core.Pd.arrive pd j))
    inst.Instance.jobs;
  let st = Speedscale_core.Pd.stats pd in
  Harness.add_record
    (Speedscale_obs.Record.make ~id:"E12/pd-arrivals-n100-m8-counters"
       ~params:
         [
           ("n", Speedscale_obs.Record.P_int 100);
           ("machines", Speedscale_obs.Record.P_int 8);
         ]
       ~counters:
         [
           ("probes", st.probes);
           ("intervals", st.intervals);
           ("breakpoints", st.breakpoints);
         ]
       Speedscale_obs.Record.Timing)
