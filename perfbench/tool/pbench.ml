(* pbench — the compiled half of the benchmark (perfbench/run.py is the
   other half).

     pbench gen --family datacenter|longwin --n N --seed S -o FILE
     pbench reference --inst FILE --shards K -o FILE
     pbench trace --inst FILE --mode serve|stream --shards K --every E
                  --kill K2 [--failover-main] --work DIR --spans FILE

   [gen] writes a workload instance; [reference] the decisions psched
   must reproduce on it; [trace] replays the workload in-process with
   spans and prints per-layer metrics as "name value" lines. *)

open Speedscale_model
module Generate = Speedscale_workload.Generate

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("pbench: " ^ m);
      exit 2)
    fmt

(* ---------------- gen ---------------- *)

(* m = 4 and alpha = 3 on every workload.  [longwin] has wide windows
   (densities 0.05–0.2) so intervals stay live long and the core and
   Chen's water-filling dominate; [datacenter] is the bursty preset. *)
let generate ~family ~n ~seed =
  let power = Power.make 3.0 and machines = 4 in
  match family with
  | "datacenter" -> Generate.datacenter ~power ~machines ~seed ~n
  | "longwin" ->
    Generate.random ~power ~machines ~seed ~n ~arrivals:(Poisson 2.0)
      ~sizes:(Uniform_size (0.3, 2.5))
      ~laxity:(0.05, 0.2) ~values:(Per_density 3.0)
  | f -> die "unknown family %S" f

(* ---------------- reference ---------------- *)

(* The decisions psched must print: the pd engine folded over each
   shard's subsequence (split with Service.default_shard_fn), as
   Online.run folds it, keeping the input's job ids.  One line per
   arrival, then the energy of each shard's final plan. *)
let reference inst ~shards oc =
  let n = Array.length inst.Instance.jobs in
  let ctx = { Replay.sp = Spans.create ~enabled:false (); inst; shards } in
  let ds = Replay.decisions n in
  let st = Replay.engine_pass ctx ~stream:false ~cut:0 ds in
  Printf.fprintf oc "n %d\n" n;
  for i = 0 to n - 1 do
    Printf.fprintf oc "d %d %d %d %.17g\n" i ds.shard.(i)
      (Bool.to_int ds.accepted.(i))
      ds.lambda.(i)
  done;
  Array.iteri (fun i e -> Printf.fprintf oc "e %d %.17g\n" i e) st.energy

(* ---------------- trace ---------------- *)

type trace_cfg = {
  stream : bool;
  shards : int;
  every : int;
  kill : int;
  failover_main : bool;
  work : string;
  spans_out : string;
}

let us x = x *. 1e6

let trace inst_path cfg =
  let text = In_channel.with_open_bin inst_path In_channel.input_all in
  let t0 = Spans.now () in
  let inst = Io.of_string text in
  let t1 = Spans.now () in
  let n = Array.length inst.jobs in
  let nf = float_of_int n in
  (* preallocated so span storage never grows inside a replay, where it
     would show up in the live-heap reading *)
  let sp = Spans.create ~capacity:((8 * n) + 1024) ~enabled:true () in
  ignore
    (Spans.add sp ~name:(Spans.name sp "model.parse") ~parent:(-1) ~seq:(-1)
       t0 t1);
  let ctx = { Replay.sp; inst; shards = cfg.shards } in
  let ctx_u = { ctx with sp = Spans.create ~enabled:false () } in
  let f =
    {
      Replay.every = cfg.every;
      kill = cfg.kill;
      dir = Filename.concat cfg.work "trace-ckpt";
    }
  in
  (* The last checkpoint the killed process commits: where the engine
     pass snapshots and restores its shards, on the failover path only. *)
  let cut =
    if cfg.failover_main then cfg.kill / cfg.every * cfg.every else 0
  in
  let wall g =
    let a = Spans.now () in
    let r = g () in
    (r, float_of_int (Spans.now () - a) *. 1e-9)
  in
  let run_main ctx ds =
    if cfg.stream then (None, Some (Replay.engine_pass ctx ~stream:true ~cut ds))
    else
      let failover = if cfg.failover_main then Some f else None in
      (Some (fst (Replay.serve_pass ctx ~main:true ~failover ds)), None)
  in
  (* Untraced, traced, untraced again: the faster untraced pass is the
     baseline, so heap growth in the first pass is not billed to
     tracing. *)
  let ds_u = Replay.decisions n and ds_t = Replay.decisions n in
  let _, wall_u1 = wall (fun () -> run_main ctx_u ds_u) in
  let (main_serve, main_engine), wall_t = wall (fun () -> run_main ctx ds_t) in
  let _, wall_u2 = wall (fun () -> run_main ctx_u ds_u) in
  let wall_u = Float.min wall_u1 wall_u2 in
  (* The recovery probe, where failing over is not the main path.  It
     records into its own spans so the main path's self times stay
     those of the main path. *)
  let probe = Spans.create ~enabled:true () in
  let probe_ds = Replay.decisions n in
  let ckpt, ck_spans =
    match main_serve with
    | Some st when cfg.failover_main -> (st, sp)
    | _ ->
      ( fst
          (Replay.serve_pass { ctx with sp = probe } ~main:false
             ~failover:(Some f) probe_ds),
        probe )
  in
  let ds_e = Replay.decisions n in
  let eng =
    match main_engine with
    | Some e -> e
    | None -> Replay.engine_pass ctx ~stream:false ~cut ds_e
  in
  let reference = if cfg.stream then ds_t else ds_e in
  let ds_c = Replay.decisions n in
  let core = Replay.core_pass ctx ds_c in
  let mismatches =
    Replay.mismatches reference ds_u
    + Replay.mismatches reference ds_t
    + Replay.mismatches reference ds_c
    + if cfg.failover_main then 0 else Replay.mismatches reference probe_ds
  in
  let gc = Gc.quick_stat () in
  Replay.rm_rf f.dir;
  Spans.write sp cfg.spans_out;
  Spans.write probe (cfg.spans_out ^ ".probe");
  let d = Spans.durations sp and busy = Spans.busy sp in
  let p q name = Spans.percentile (d name) q in
  let ck q name = Spans.percentile (Spans.durations ck_spans name) q in
  (* on the stream path the probe's counters are all zero: it submits
     untimed *)
  let sv = Option.value main_serve ~default:ckpt in
  let json = match main_serve with Some st -> st.json | None -> eng.ejson in
  let per_record x = if json.records = 0 then 0. else x /. float_of_int json.records in
  let per_call x = if eng.plan_calls = 0 then 0. else x /. float_of_int eng.plan_calls in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let metrics =
    [
      ("model.parse_us_per_arrival", us (busy "model.parse") /. nf);
      ("model.energy_s", busy "model.energy");
      ("obs.json_us_per_record", us (per_record (busy "obs.json")));
      ("obs.json_bytes_per_record", per_record (float_of_int json.bytes));
      ("service.submit_p50_us", us (p 0.5 "service.submit"));
      ("service.submit_p99_us", us (p 0.99 "service.submit"));
      ("service.submit_busy_s", busy "service.submit");
      ("service.empty_submit_ratio", ratio sv.empty_submits sv.submits);
      ("service.max_backlog", float_of_int sv.max_backlog);
      ("service.drain_s", busy "service.drain");
      ("service.finalize_s", busy "service.finalize");
      ("service.checkpoint_p50_s", ck 0.5 "service.checkpoint");
      ("service.checkpoint_max_s", ck 1.0 "service.checkpoint");
      ("service.checkpoint_bytes", float_of_int ckpt.checkpoint_bytes);
      ("service.restore_s", Spans.busy ck_spans "service.restore");
      ("engine.arrive_p50_us", us (p 0.5 "engine.arrive"));
      ("engine.arrive_p99_us", us (p 0.99 "engine.arrive"));
      ("engine.busy_s", busy "engine.arrive");
      ("engine.words_per_arrival", eng.arrive_words /. nf);
      ( "engine.wrapper_us_per_arrival",
        us (busy "engine.arrive" -. busy "core.arrive") /. nf );
      ("engine.live_words_end", float_of_int eng.live_words);
      ("engine.current_plan_p50_us", us (p 0.5 "engine.current_plan"));
      ("engine.current_plan_busy_s", busy "engine.current_plan");
      ("engine.current_plan_words", per_call eng.plan_words);
      ("engine.snapshot_s", busy "engine.snapshot");
      ("engine.snapshot_bytes", float_of_int eng.snapshot_bytes);
      ("engine.restore_s", busy "engine.restore");
      ("core.arrive_p50_us", us (p 0.5 "core.arrive"));
      ("core.arrive_p99_us", us (p 0.99 "core.arrive"));
      ("core.busy_s", busy "core.arrive");
      ("core.words_per_arrival", core.words /. nf);
      ("core.accept_ratio", ratio core.accepted n);
      ("core.max_live_intervals", float_of_int core.max_live_intervals);
      ("core.max_table_entries", float_of_int core.max_table_entries);
      ("core.finished_slices", float_of_int core.finished_slices);
      ("core.schedule_s", busy "core.schedule");
      ("chen.probes_per_arrival", float_of_int core.pd.probes /. nf);
      ("chen.intervals_per_arrival", float_of_int core.pd.intervals /. nf);
      ("chen.breakpoints_per_arrival", float_of_int core.pd.breakpoints /. nf);
      ("gc.top_heap_mb", float_of_int (gc.top_heap_words * 8) /. 1e6);
      ("gc.major_collections", float_of_int gc.major_collections);
      ("trace.overhead_ratio", wall_t /. wall_u);
      (* inputs run.py needs for the derived front-end figure *)
      ("run.arrivals", nf);
      ("run.main_untraced_s", wall_u);
      ("run.parse_s", busy "model.parse");
      ("run.spans", float_of_int (Spans.count sp));
      ("run.mismatches", float_of_int mismatches);
    ]
    @ List.map (fun (l, s) -> ("self." ^ l ^ "_s", s)) (Spans.self_by_layer sp)
  in
  List.iter (fun (k, v) -> Printf.printf "%s %.17g\n" k v) metrics

(* ---------------- command line ---------------- *)

let () =
  let family = ref "" and n = ref 0 and seed = ref 0 and out = ref "" in
  let inst = ref "" and shards = ref 1 and mode = ref "serve" in
  let every = ref 0 and kill = ref 0 and failover_main = ref false in
  let work = ref "." and spans_out = ref "spans.tsv" in
  let specs =
    [
      ("--family", Arg.Set_string family, "datacenter|longwin");
      ("--n", Arg.Set_int n, "arrivals");
      ("--seed", Arg.Set_int seed, "generator seed");
      ("-o", Arg.Set_string out, "output file");
      ("--inst", Arg.Set_string inst, "instance file");
      ("--shards", Arg.Set_int shards, "shard count");
      ("--mode", Arg.Set_string mode, "serve|stream");
      ("--every", Arg.Set_int every, "checkpoint cadence (arrivals)");
      ("--kill", Arg.Set_int kill, "kill point (arrivals)");
      ("--failover-main", Arg.Set failover_main, "fail over on the main path");
      ("--work", Arg.Set_string work, "scratch directory");
      ("--spans", Arg.Set_string spans_out, "span dump (TSV)");
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun a -> cmd := a) "pbench gen|reference|trace [options]";
  let with_out f =
    if !out = "" then die "-o is required";
    Out_channel.with_open_bin !out f
  in
  match !cmd with
  | "gen" ->
    if !n < 1 then die "--n must be >= 1";
    let i = generate ~family:!family ~n:!n ~seed:!seed in
    with_out (fun oc -> output_string oc (Io.to_string i))
  | "reference" ->
    with_out (reference (Io.load !inst) ~shards:!shards)
  | "trace" ->
    if !every < 1 || !kill < !every then die "need 1 <= --every <= --kill";
    trace !inst
      {
        stream = String.equal !mode "stream";
        shards = !shards;
        every = !every;
        kill = !kill;
        failover_main = !failover_main;
        work = !work;
        spans_out = !spans_out;
      }
  | c -> die "unknown command %S (gen, reference, trace)" c
