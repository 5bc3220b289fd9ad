(* The in-process mirror of what one psched process does on a workload,
   driven through the libraries' public functions with a span around
   every call into a layer.  Three passes:

   - [serve_pass]: parse → Service.submit / drain / finalize (plus
     checkpoint and restore when failing over) → Json.to_string of
     records shaped like `psched serve`'s, all on the calling domain,
     with the engines on one worker domain as `--workers 1` runs them;
   - [engine_pass]: the same arrivals through Online.arrive on one domain
     per shard subsequence (with Online.current_plan and the stream
     record when mirroring `psched stream`).  Untraced, this is the
     reference computation the CLI's output is checked against;
   - [core_pass]: the same arrivals through Pd.arrive directly, which
     isolates the core from the engine wrapper and yields Chen's counts.

   Allocation is read with Gc.minor_words only in the single-domain
   engine and core passes, where it repeats exactly run over run. *)

open Speedscale_model
module Online = Speedscale_engine.Online
module Service = Speedscale_service.Service
module Checkpoint = Speedscale_service.Checkpoint
module Json = Speedscale_obs.Json
module Pd = Speedscale_core.Pd

(* psched's split of the machine pool: m/k per shard, the first m mod k
   shards one more.  With k = 1 this is the single-engine `stream`
   path's parameters. *)
let shard_machines (inst : Instance.t) ~shards i =
  (inst.machines / shards) + if i < inst.machines mod shards then 1 else 0

let shard_params (inst : Instance.t) ~shards i =
  Online.params ~power:inst.power
    ~machines:(shard_machines inst ~shards i)
    ()

let route ~shards j = (snd Service.default_shard_fn) j shards

(* ---------------- decisions, stored unboxed ---------------- *)

type decisions = {
  shard : int array;  (** -1 until decided *)
  accepted : bool array;
  lambda : float array;
}

let decisions n =
  {
    shard = Array.make n (-1);
    accepted = Array.make n false;
    lambda = Array.make n Float.nan;
  }

let set ds ~seq ~shard (d : Online.decision) =
  ds.shard.(seq) <- shard;
  ds.accepted.(seq) <- d.accepted;
  ds.lambda.(seq) <- Option.value d.lambda ~default:Float.nan

let close_rel a b =
  Float.equal a b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* Arrivals on which [b] is missing or disagrees with the reference [a]:
   accept bit exact, multiplier within 1e-9 relative. *)
let mismatches a b =
  let bad = ref 0 in
  Array.iteri
    (fun i s ->
      if
        b.shard.(i) <> s || b.shard.(i) < 0
        || b.accepted.(i) <> a.accepted.(i)
        || not (close_rel a.lambda.(i) b.lambda.(i))
      then incr bad)
    a.shard;
  !bad

(* ---------------- records shaped like psched's ---------------- *)

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let serve_record (ev : Service.ev) =
  let d = ev.decision in
  Json.Obj
    [
      ("seq", Json.Int ev.seq);
      ("job", Json.Int d.job_id);
      ("shard", Json.Int ev.shard);
      ("accepted", Json.Bool d.accepted);
      ("lambda", opt_float d.lambda);
      ("planned_speed", opt_float d.planned_speed);
    ]

let stream_record ~seq ~plan_before (d : Online.decision) (plan : Schedule.t)
    =
  let n_slices = List.length plan.slices in
  Json.Obj
    [
      ("seq", Json.Int seq);
      ("job", Json.Int d.job_id);
      ("accepted", Json.Bool d.accepted);
      ("lambda", opt_float d.lambda);
      ("planned_speed", opt_float d.planned_speed);
      ("plan_slices", Json.Int n_slices);
      ("plan_delta", Json.Int (n_slices - plan_before));
      ("rejected", Json.Int (List.length plan.rejected));
    ]

(* ---------------- pass context ---------------- *)

type ctx = { sp : Spans.t; inst : Instance.t; shards : int }

let n_jobs ctx = Array.length ctx.inst.jobs

(* Time one call as a span under [parent]; the result is returned. *)
let timed ctx ~name ~parent ~seq f =
  let t0 = Spans.stamp ctx.sp in
  let r = f () in
  let t1 = Spans.stamp ctx.sp in
  ignore (Spans.add ctx.sp ~name ~parent ~seq t0 t1);
  r

type json_acc = { mutable records : int; mutable bytes : int }

let json_acc () = { records = 0; bytes = 0 }

let emit_json ctx acc ~name ~parent ~seq r =
  let s = timed ctx ~name ~parent ~seq (fun () -> Json.to_string r) in
  acc.records <- acc.records + 1;
  (* psched prints each record followed by a newline *)
  acc.bytes <- acc.bytes + String.length s + 1

(* ---------------- the service pass ---------------- *)

type failover = { every : int; kill : int; dir : string }

type serve_stats = {
  mutable submits : int;
  mutable empty_submits : int;
  mutable max_backlog : int;
  mutable checkpoint_bytes : int;
  json : json_acc;
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let file_size path = In_channel.with_open_bin path In_channel.length

(* Bytes of the committed checkpoint: the manifest plus the shard files
   it names (read back, digests verified, through Checkpoint.load). *)
let checkpoint_bytes manifest =
  let _, snaps = Checkpoint.load ~manifest in
  Int64.to_int (file_size manifest)
  + Array.fold_left (fun acc s -> acc + String.length s) 0 snaps

(* Mirror of `psched serve --shards K --workers 1`, and with [failover]
   of its `--snapshot-every E --kill-after K2` run followed by the
   `--restore` run on the same input.  With [main = false] only
   checkpoint and restore are timed and no record is rendered: the
   recovery probe of a workload whose main path is measured elsewhere. *)
let serve_pass ctx ~main ~failover ds =
  let sp = ctx.sp and n = n_jobs ctx in
  let k_submit = Spans.name sp "service.submit"
  and k_json = Spans.name sp "obs.json"
  and k_drain = Spans.name sp "service.drain"
  and k_final = Spans.name sp "service.finalize"
  and k_ckpt = Spans.name sp "service.checkpoint"
  and k_restore = Spans.name sp "service.restore" in
  let st =
    {
      submits = 0;
      empty_submits = 0;
      max_backlog = 0;
      checkpoint_bytes = 0;
      json = json_acc ();
    }
  in
  let root = Spans.open_root sp "bench.serve" in
  let emit next evs =
    List.iter
      (fun (ev : Service.ev) ->
        set ds ~seq:ev.seq ~shard:ev.shard ev.decision;
        next := ev.seq + 1;
        if main then
          emit_json ctx st.json ~name:k_json ~parent:root ~seq:ev.seq
            (serve_record ev))
      evs
  in
  (* Submit arrivals from [from] on, up to the kill point of [cut]. *)
  let run svc ~from ~cut =
    let next = ref from in
    let i = ref from and killed = ref false in
    while (not !killed) && !i < n do
      let j = ctx.inst.jobs.(!i) in
      let evs =
        if main then
          timed ctx ~name:k_submit ~parent:root ~seq:!i (fun () ->
              Service.submit svc j)
        else Service.submit svc j
      in
      if main then begin
        st.submits <- st.submits + 1;
        if evs = [] then st.empty_submits <- st.empty_submits + 1
      end;
      emit next evs;
      let seq = Service.seq svc in
      if main then st.max_backlog <- max st.max_backlog (seq - !next);
      (match cut with
      | Some f ->
        if seq mod f.every = 0 then
          timed ctx ~name:k_ckpt ~parent:root ~seq (fun () ->
              Service.checkpoint svc ~dir:f.dir);
        if seq >= f.kill then killed := true
      | None -> ());
      incr i
    done;
    emit next
      (timed ctx ~name:k_drain ~parent:root ~seq:(-1) (fun () ->
           Service.drain svc))
  in
  let create () =
    Service.create ~workers:1 ~engine:Online.pd
      ~params:(shard_params ctx.inst ~shards:ctx.shards)
      ~shards:ctx.shards ()
  in
  let svc =
    match failover with
    | None ->
      let svc = create () in
      run svc ~from:0 ~cut:None;
      svc
    | Some f ->
      rm_rf f.dir;
      let dead = create () in
      run dead ~from:0 ~cut:(Some f);
      Service.shutdown dead;
      let manifest = Filename.concat f.dir Checkpoint.manifest_name in
      st.checkpoint_bytes <- checkpoint_bytes manifest;
      let svc =
        timed ctx ~name:k_restore ~parent:root ~seq:(-1) (fun () ->
            Service.restore ~workers:1 ~manifest ())
      in
      run svc ~from:(Service.seq svc) ~cut:None;
      svc
  in
  let plans =
    timed ctx ~name:k_final ~parent:root ~seq:(-1) (fun () ->
        Service.finalize svc)
  in
  Service.shutdown svc;
  Spans.close sp root;
  (st, plans)

(* ---------------- the engine pass ---------------- *)

type engine_stats = {
  arrive_words : float;
  plan_words : float;
  plan_calls : int;
  live_words : int;
  snapshot_bytes : int;
  energy : float array;  (** per shard, of the final plans *)
  ejson : json_acc;
}

(* Arrivals through Online.arrive on one domain, shard by shard.  With
   [stream] each arrival is followed by Online.current_plan and the
   stream record, as `psched stream` does.  At arrival [cut] every
   shard is snapshotted and restored once (the engine half of a
   checkpoint).  Words are read only when the recorder is on. *)
let engine_pass ctx ~stream ~cut ds =
  let sp = ctx.sp and n = n_jobs ctx and k = ctx.shards in
  let k_arrive = Spans.name sp "engine.arrive"
  and k_plan = Spans.name sp "engine.current_plan"
  and k_json = Spans.name sp "obs.json"
  and k_snap = Spans.name sp "engine.snapshot"
  and k_restore = Spans.name sp "engine.restore"
  and k_energy = Spans.name sp "model.energy" in
  let words = Spans.enabled sp in
  let live () =
    if words then begin
      Gc.full_major ();
      (Gc.stat ()).live_words
    end
    else 0
  in
  let ejson = json_acc () in
  (* acc.(0): arrive words; acc.(1): current_plan words *)
  let acc = Array.make 2 0. in
  let snapshot_bytes = ref 0 and plan_before = ref 0 in
  let root = Spans.open_root sp "bench.engine" in
  let live0 = live () in
  let states =
    Array.init k (fun i -> Online.start Online.pd (shard_params ctx.inst ~shards:k i))
  in
  for i = 0 to n - 1 do
    let j = ctx.inst.jobs.(i) in
    let s = route ~shards:k j in
    let w0 = Gc.minor_words () in
    let d =
      timed ctx ~name:k_arrive ~parent:root ~seq:i (fun () ->
          Online.arrive states.(s) j)
    in
    let w1 = Gc.minor_words () in
    acc.(0) <- acc.(0) +. (w1 -. w0);
    set ds ~seq:i ~shard:s d;
    if stream then begin
      let w0 = Gc.minor_words () in
      let plan =
        timed ctx ~name:k_plan ~parent:root ~seq:i (fun () ->
            Online.current_plan states.(s))
      in
      let w1 = Gc.minor_words () in
      acc.(1) <- acc.(1) +. (w1 -. w0);
      emit_json ctx ejson ~name:k_json ~parent:root ~seq:i
        (stream_record ~seq:i ~plan_before:!plan_before d plan);
      plan_before := List.length plan.slices
    end;
    if i + 1 = cut then
      Array.iter
        (fun st ->
          let snap =
            timed ctx ~name:k_snap ~parent:root ~seq:i (fun () ->
                Online.snapshot st)
          in
          snapshot_bytes := !snapshot_bytes + String.length snap;
          ignore
            (Sys.opaque_identity
               (timed ctx ~name:k_restore ~parent:root ~seq:i (fun () ->
                    Online.restore snap))))
        states
  done;
  let live_words = live () - live0 in
  let plans = Array.map Online.finalize (Sys.opaque_identity states) in
  let energy =
    timed ctx ~name:k_energy ~parent:root ~seq:(-1) (fun () ->
        Array.map (Schedule.energy ctx.inst.power) plans)
  in
  Spans.close sp root;
  {
    arrive_words = acc.(0);
    plan_words = acc.(1);
    plan_calls = (if stream then n else 0);
    live_words;
    snapshot_bytes = !snapshot_bytes;
    energy;
    ejson;
  }

(* ---------------- the core pass ---------------- *)

type core_stats = {
  words : float;
  accepted : int;
  pd : Pd.stats;  (** summed over shards *)
  max_live_intervals : int;
  max_table_entries : int;
  finished_slices : int;
}

let core_pass ctx ds =
  let sp = ctx.sp and n = n_jobs ctx and k = ctx.shards in
  let k_arrive = Spans.name sp "core.arrive"
  and k_sched = Spans.name sp "core.schedule" in
  let root = Spans.open_root sp "bench.core" in
  let pds =
    Array.init k (fun i ->
        Pd.create ~gc:true ~power:ctx.inst.power
          ~machines:(shard_machines ctx.inst ~shards:k i)
          ())
  in
  let acc = Array.make 1 0. and accepted = ref 0 in
  for i = 0 to n - 1 do
    let j = ctx.inst.jobs.(i) in
    let s = route ~shards:k j in
    let w0 = Gc.minor_words () in
    let d =
      timed ctx ~name:k_arrive ~parent:root ~seq:i (fun () ->
          Pd.arrive pds.(s) j)
    in
    let w1 = Gc.minor_words () in
    acc.(0) <- acc.(0) +. (w1 -. w0);
    if d.accepted then incr accepted;
    ds.shard.(i) <- s;
    ds.accepted.(i) <- d.accepted;
    ds.lambda.(i) <- d.lambda
  done;
  let mems = Array.map Pd.mem pds in
  let stats = Array.map Pd.stats pds in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 in
  let peak f = Array.fold_left (fun a x -> max a (f x)) 0 in
  ignore
    (Sys.opaque_identity
       (timed ctx ~name:k_sched ~parent:root ~seq:(-1) (fun () ->
            Array.map Pd.schedule pds)));
  Spans.close sp root;
  {
    words = acc.(0);
    accepted = !accepted;
    pd =
      {
        arrivals = sum (fun (s : Pd.stats) -> s.arrivals) stats;
        probes = sum (fun (s : Pd.stats) -> s.probes) stats;
        intervals = sum (fun (s : Pd.stats) -> s.intervals) stats;
        breakpoints = sum (fun (s : Pd.stats) -> s.breakpoints) stats;
      };
    max_live_intervals = peak (fun (m : Pd.mem_stats) -> m.max_live_intervals) mems;
    max_table_entries = peak (fun (m : Pd.mem_stats) -> m.max_table_entries) mems;
    finished_slices = sum (fun (m : Pd.mem_stats) -> m.finished_slices) mems;
  }
