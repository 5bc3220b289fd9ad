open Speedscale_model
open Speedscale_solver

(* PD is the framework's reference instantiation: the paper's
   energy+lost-value objective, the atomic-interval/Chen water-filling
   relaxation, and the Lagrangian dual certificate.  Everything below is
   a thin delegation layer plus the native snapshot text format; the
   algorithm itself lives in Pd_core (where both the fast breakpoint-walk
   solver and the bisection reference oracle are shared with any other
   instantiation of the interval relaxation). *)

module O = Pd_core.Energy_value
module R = Pd_core.Interval (O)
module C = Pd_core.Lagrangian (O)
module Core = Pd_core.Make (O) (R) (C)

type t = Core.t

type arrival_stats = Pd_core.arrival_stats = {
  job_id : int;
  accepted : bool;
  probes : int;
  intervals : int;
  breakpoints : int;
  wall_s : float;
}

type stats = Pd_core.stats = {
  arrivals : int;
  probes : int;
  intervals : int;
  breakpoints : int;
}

type mem_stats = Pd_core.mem_stats = {
  live_intervals : int;
  max_live_intervals : int;
  table_entries : int;
  max_table_entries : int;
  flushed_intervals : int;
  finished_slices : int;
}

type decision = Pd_core.decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;
  planned_speed : float;
  assignment : (int * float) list;
}

type history_error = Pd_core.history_error = {
  operation : string;
  flushed_intervals : int;
}

exception Bounded_memory = Pd_core.Bounded_memory

let create ?clock ?delta ?(gc = false) ~power ~machines () =
  Core.create ?clock ~gc ~err:"Pd"
    (O.make ?delta ~err:"Pd.create" ~power ~machines ())

let set_observer = Core.set_observer
let stats = Core.stats
let mem = Core.mem
let arrive = Core.arrive
let arrive_reference = Core.arrive_reference
let boundaries t = R.boundaries (Core.relax t)
let interval_loads t = R.interval_loads (Core.relax t)
let schedule = Core.schedule
let lambdas = Core.lambdas
let delta t = O.delta (Core.obj t)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let snapshot_result t =
  match Core.history_guard t "snapshot" with
  | Error e -> Error e
  | Ok () ->
    let b = Buffer.create 1024 in
    let pf fmt = Fmt.kstr (Buffer.add_string b) fmt in
    let obj = Core.obj t in
    pf "pd-snapshot v1\n";
    pf "alpha %.17g\n" (Power.alpha (O.power obj));
    pf "machines %d\n" (O.machines obj);
    pf "delta %.17g\n" (O.delta obj);
    pf "last_release %.17g\n" (Core.last_release t);
    pf "bounds";
    Array.iter (fun x -> pf " %.17g" x) (boundaries t);
    pf "\n";
    Array.iteri
      (fun k loads ->
        pf "interval %d" k;
        List.iter (fun (id, load) -> pf " %d:%.17g" id load) loads;
        pf "\n")
      (interval_loads t);
    (* jobs in arrival order with their outcomes *)
    List.iter
      (fun (j : Job.t) ->
        let lambda, accepted =
          match Core.outcome t j.id with
          | Some o -> o
          | None -> (0.0, false)
        in
        let status = if accepted then "accepted" else "rejected" in
        pf "job %d %.17g %.17g %.17g %s lambda %.17g %s\n" j.id j.release
          j.deadline j.workload
          (if Float.equal j.value Float.infinity then "inf"
           else Fmt.str "%.17g" j.value)
          lambda status)
      (Core.seen_jobs t);
    Ok (Buffer.contents b)

let snapshot t =
  match snapshot_result t with
  | Ok s -> s
  | Error e -> raise (Bounded_memory e)

let restore text =
  let fail lineno msg =
    failwith (Fmt.str "Pd.restore: line %d: %s" lineno msg)
  in
  let parse_float lineno what s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail lineno (Fmt.str "bad %s %S" what s)
  in
  let alpha = ref None
  and machines = ref None
  and delta = ref None
  and bounds = ref [||]
  and intervals = ref []
  and jobs = ref [] in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let lineno = i + 1 in
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (( <> ) "")
         with
         | [] -> ()
         | [ "pd-snapshot"; "v1" ] -> ()
         | [ "alpha"; v ] -> alpha := Some (parse_float lineno "alpha" v)
         | [ "machines"; v ] -> (
           match int_of_string_opt v with
           | Some m -> machines := Some m
           | None -> fail lineno "bad machines")
         | [ "delta"; v ] -> delta := Some (parse_float lineno "delta" v)
         | [ "last_release"; v ] ->
           (* implied by the last job line: replaying the jobs restores
              it *)
           ignore (parse_float lineno "last_release" v)
         | "bounds" :: rest ->
           bounds :=
             Array.of_list (List.map (parse_float lineno "bound") rest)
         | "interval" :: k :: rest ->
           let k =
             match int_of_string_opt k with
             | Some k -> k
             | None -> fail lineno "bad interval index"
           in
           let loads =
             List.map
               (fun pair ->
                 match String.split_on_char ':' pair with
                 | [ id; load ] -> (
                   match int_of_string_opt id with
                   | Some id -> (id, parse_float lineno "load" load)
                   | None -> fail lineno "bad load id")
                 | _ -> fail lineno "bad load pair")
               rest
           in
           intervals := (k, loads) :: !intervals
         | [ "job"; id; r; d; w; v; "lambda"; l; status ] ->
           let id =
             match int_of_string_opt id with
             | Some id -> id
             | None -> fail lineno "bad job id"
           in
           let value =
             if v = "inf" then Float.infinity
             else parse_float lineno "value" v
           in
           let job =
             Job.make ~id ~release:(parse_float lineno "release" r)
               ~deadline:(parse_float lineno "deadline" d)
               ~workload:(parse_float lineno "workload" w)
               ~value
           in
           let accepted =
             match status with
             | "accepted" -> true
             | "rejected" -> false
             | _ -> fail lineno "bad status"
           in
           jobs :=
             (lineno, job, parse_float lineno "lambda" l, accepted) :: !jobs
         | _ -> fail lineno (Fmt.str "unrecognized %S" line));
  let alpha =
    match !alpha with Some a -> a | None -> failwith "Pd.restore: missing alpha"
  in
  let machines =
    match !machines with
    | Some m -> m
    | None -> failwith "Pd.restore: missing machines"
  in
  let delta =
    match !delta with Some d -> d | None -> failwith "Pd.restore: missing delta"
  in
  let t = create ~delta ~power:(Power.make alpha) ~machines () in
  R.load_timeline (Core.relax t) ~bounds:!bounds ~loads:!intervals;
  List.iter
    (fun (lineno, job, lambda, accepted) ->
      let err = "Pd.restore: line " ^ string_of_int lineno in
      try Core.record t ~err job ~lambda ~accepted
      with Invalid_argument m -> failwith m)
    (List.rev !jobs);
  t

let certificate = Core.certificate
let certificate_result = Core.certificate_result

type result = {
  schedule : Schedule.t;
  cost : Cost.t;
  lambda : float array;
  accepted : int list;
  rejected : int list;
  dual_bound : float;
  guarantee : float;
  decisions : decision list;
  delta : float;
  final_boundaries : float array;
  final_loads : (int * float) list array;
}

let run ?delta:d (inst : Instance.t) =
  let t = create ?delta:d ~power:inst.power ~machines:inst.machines () in
  let decisions =
    List.init (Instance.n_jobs inst) (fun i -> arrive t (Instance.job inst i))
  in
  let sched = schedule t in
  let n = Instance.n_jobs inst in
  let lambda = Array.make n 0.0 in
  List.iter (fun (id, l) -> lambda.(id) <- l) (lambdas t);
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  let dual = Dual.evaluate inst tl ~lambda in
  {
    schedule = sched;
    cost = Schedule.cost inst sched;
    lambda;
    accepted = Core.accepted t;
    rejected = Core.rejected t;
    dual_bound = dual.value;
    guarantee = Power.competitive_bound inst.power;
    decisions;
    delta = delta t;
    final_boundaries = boundaries t;
    final_loads = interval_loads t;
  }
