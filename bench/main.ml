(* Benchmark harness entry point.

     dune exec bench/main.exe                      # every experiment + timings
     dune exec bench/main.exe -- E2 E5             # run selected experiments
     dune exec bench/main.exe -- quick             # skip the slow exact-OPT sweeps
     dune exec bench/main.exe -- quick --json BENCH_quick.json
     dune exec bench/main.exe -- --jobs 4 --json BENCH_full.json

   Each experiment regenerates one table or figure of EXPERIMENTS.md and
   prints a CONFIRMED / NOT CONFIRMED verdict for the expected shape; the
   run exits 1 if any verdict is NOT CONFIRMED.
   Experiments fan out across OCaml 5 domains (their seeds are fixed per
   experiment, and output/records merge in experiment order, so any --jobs
   value prints identical bytes); bechamel timings always run sequentially
   after them, on an otherwise idle process.  --json additionally writes
   every structured record (see doc/BENCHMARKING.md for the schema and for
   the golden pin that checks the smoke run's records). *)

let slow = [ "E6"; "E7"; "E8"; "E11"; "E18"; "E19"; "E21"; "E22"; "E28" ]

(* The cheap experiments: what `--smoke` (the @bench-quick alias attached
   to @runtest) runs on every test run without paying for the full sweeps.
   Their records, timing aside, are pinned by test/bench_golden.json: the
   figure/property verdicts, E20's Chen probe/interval/breakpoint counts
   and E27's certificate-violation count. *)
let smoke_set = [ "E2"; "E3"; "E4"; "E5"; "E10"; "E20"; "E27" ]

let usage code =
  let ch = if code = 0 then stdout else stderr in
  Printf.fprintf ch
    "usage: main.exe [list | quick | all | IDS...] [--json PATH] [--jobs N] \
     [--smoke]\n\
    \  list         print the experiment index and exit\n\
    \  quick        skip the slow exact-OPT sweeps (%s) and the timings\n\
    \  IDS          run selected experiments (E12 or 'timings' selects the \
     bechamel suite)\n\
    \  --json PATH  write structured benchmark records (schema: \
     doc/BENCHMARKING.md)\n\
    \  --jobs N     worker domains for the experiment fan-out (default: \
     cores, max 8)\n\
    \  --smoke      tiny smoke run: restrict to %s, single-repetition \
     timings\n"
    (String.concat ", " slow)
    (String.concat "," smoke_set);
  exit code

type cli = {
  mutable ids : string list;  (* reversed *)
  mutable json : string option;
  mutable jobs : int option;
  mutable smoke : bool;
  mutable quick : bool;
  mutable all : bool;
  mutable list : bool;
}

let parse_args args =
  let cli =
    { ids = []; json = None; jobs = None; smoke = false; quick = false;
      all = false; list = false }
  in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ -> usage 0
    | "--json" :: path :: rest ->
      cli.json <- Some path;
      go rest
    | [ "--json" ] ->
      prerr_endline "main.exe: --json needs a path argument";
      exit 2
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some k when k >= 1 ->
        cli.jobs <- Some k;
        go rest
      | _ ->
        Printf.eprintf "main.exe: --jobs needs a positive integer, got %S\n" n;
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "main.exe: --jobs needs a count argument";
      exit 2
    | "--smoke" :: rest ->
      cli.smoke <- true;
      go rest
    | "list" :: rest ->
      cli.list <- true;
      go rest
    | "quick" :: rest ->
      cli.quick <- true;
      go rest
    | "all" :: rest ->
      cli.all <- true;
      go rest
    | arg :: rest ->
      if String.length arg > 0 && Char.equal arg.[0] '-' then begin
        Printf.eprintf "main.exe: unknown option %s\n" arg;
        usage 2
      end;
      cli.ids <- arg :: cli.ids;
      go rest
  in
  go args;
  cli.ids <- List.rev cli.ids;
  cli

let () =
  let cli = parse_args (List.tl (Array.to_list Sys.argv)) in
  let known = List.map fst Experiments.all in
  if cli.list then begin
    Printf.printf "available experiments:\n";
    List.iter (fun id -> Printf.printf "  %s\n" id) known;
    Printf.printf "  E12 (timings)\nmodes: quick (skips the slow sweeps: %s)\n"
      (String.concat ", " slow);
    exit 0
  end;
  (* Reject unknown experiment ids loudly: a typo like E99 must not pass
     for a successful (empty) run. *)
  List.iter
    (fun id ->
      if
        not
          (List.mem id known || String.equal id "E12"
         || String.equal id "timings")
      then begin
        Printf.eprintf
          "main.exe: unknown experiment id %S (run 'main.exe list' for the \
           index)\n"
          id;
        exit 2
      end)
    cli.ids;
  let wanted, with_timings =
    if cli.ids <> [] then
      ( List.filter (fun id -> List.mem id cli.ids) known,
        List.mem "E12" cli.ids || List.mem "timings" cli.ids )
    else if cli.quick then (List.filter (fun id -> not (List.mem id slow)) known, false)
    else (known, true)
  in
  (* Smoke mode restricts implicit selections to the cheap subset; explicit
     ids are respected (the caller asked for exactly those). *)
  let wanted =
    if cli.smoke && cli.ids = [] then
      List.filter (fun id -> List.mem id smoke_set) wanted
    else wanted
  in
  let jobs =
    match cli.jobs with
    | Some k -> k
    | None -> Speedscale_obs.Runner.default_jobs ()
  in
  Printf.printf
    "Profitable Scheduling on Multiple Speed-Scalable Processors —\n\
     experiment harness (see DESIGN.md / EXPERIMENTS.md for the index)\n";
  let tasks = List.filter (fun (id, _) -> List.mem id wanted) Experiments.all in
  let results =
    Speedscale_obs.Runner.map ~jobs
      (fun (id, f) -> Harness.with_task id f)
      tasks
  in
  List.iter (fun (r : Harness.task_result) -> print_string r.output) results;
  let timing_records =
    if with_timings then begin
      let tr = Harness.with_task "E12" (fun () -> Timings.run ~smoke:cli.smoke ()) in
      print_string tr.output;
      tr.records
    end
    else []
  in
  Printf.printf "\nAll requested experiments completed.\n";
  let records =
    List.concat_map (fun (r : Harness.task_result) -> r.records) results
    @ timing_records
  in
  Option.iter
    (fun path ->
      Speedscale_obs.Record.write_file ~path
        {
          Speedscale_obs.Record.version = Speedscale_obs.Record.schema_version;
          env = Speedscale_obs.Record.current_env ~jobs;
          records;
        })
    cli.json;
  let refuted =
    List.filter
      (fun (r : Speedscale_obs.Record.t) -> r.verdict = Some false)
      records
  in
  if refuted <> [] then begin
    List.iter
      (fun (r : Speedscale_obs.Record.t) ->
        Printf.eprintf "main.exe: %s NOT CONFIRMED\n" r.id)
      refuted;
    exit 1
  end
