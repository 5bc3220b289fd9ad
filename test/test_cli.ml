(* End-to-end smoke tests of the psched command-line tool: generate an
   instance, then exercise every subcommand against the real binary and
   check exit codes and key output markers. *)

(* Locate the binary whether we run under `dune runtest` (cwd =
   _build/default/test) or `dune exec` from the project root. *)
let psched =
  let candidates =
    [
      "../bin/psched.exe";
      "_build/default/bin/psched.exe";
      "bin/psched.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/psched.exe"

let run_capture args =
  let out = Filename.temp_file "psched" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1"
      (Filename.quote psched)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let contains text sub =
  let n = String.length text and k = String.length sub in
  let rec go i = i + k <= n && (String.sub text i k = sub || go (i + 1)) in
  k = 0 || go 0

let check_ok name (code, text) markers =
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output mentions %S" name m)
        true (contains text m))
    markers

let with_instance f =
  let path = Filename.temp_file "psched" ".inst" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let code, _ =
        run_capture
          [ "generate"; "--preset"; "random"; "-n"; "6"; "-m"; "2"; "--seed";
            "3"; "-o"; path ]
      in
      Alcotest.(check int) "generate exit code" 0 code;
      f path)

let test_generate_stdout () =
  let code, text = run_capture [ "generate"; "-n"; "3"; "--alpha"; "2.5" ] in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "has header" true (contains text "alpha 2.5");
  Alcotest.(check bool) "has jobs" true (contains text "job ")

let test_run_pd () =
  with_instance (fun path ->
      check_ok "run" (run_capture [ "run"; path ]) [ "PD"; "valid" ])

let test_run_with_schedule () =
  with_instance (fun path ->
      check_ok "run --show-schedule"
        (run_capture [ "run"; path; "--show-schedule" ])
        [ "PD"; "proc 0" ])

let test_compare () =
  with_instance (fun path ->
      check_ok "compare"
        (run_capture [ "compare"; path ])
        [ "PD"; "mOA"; "OPT-energy" ])

let test_engines () =
  let code, text = run_capture [ "engines" ] in
  Alcotest.(check int) "engines exit code" 0 code;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "engines output mentions %S" m)
        true (contains text m))
    [
      "online engines";
      "offline baselines";
      "npd";
      "non-preemptive";
      "migratory";
      "preemptive";
      "OPT-migratory";
    ];
  (* every registry engine must appear *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "engines lists %S" name)
        true
        (contains text name))
    [ "pd"; "oa"; "avr"; "bkp"; "cll"; "moa"; "mavr"; "mcll"; "partitioned" ]

let test_certify () =
  with_instance (fun path ->
      check_ok "certify"
        (run_capture [ "certify"; path ])
        [ "dual bound"; "Theorem 3 certificate: HOLDS" ])

let test_analyze () =
  with_instance (fun path ->
      check_ok "analyze"
        (run_capture [ "analyze"; path ])
        [ "category"; "thm3=true" ])

let test_provision () =
  with_instance (fun path ->
      check_ok "provision"
        (run_capture [ "provision"; path ])
        [ "min speed cap" ])

let test_replay () =
  with_instance (fun path ->
      let csv = Filename.temp_file "psched" ".csv" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists csv then Sys.remove csv)
        (fun () ->
          check_ok "replay"
            (run_capture [ "replay"; path; "--csv"; csv ])
            [ "arrival"; "complete"; "energy" ];
          Alcotest.(check bool) "csv written" true (Sys.file_exists csv)))

let test_gantt () =
  with_instance (fun path ->
      check_ok "gantt"
        (run_capture [ "gantt"; path; "--width"; "40" ])
        [ "p0 "; "speed" ])

let test_unknown_algorithm_fails () =
  with_instance (fun path ->
      let code, _ = run_capture [ "run"; path; "-a"; "nonsense" ] in
      Alcotest.(check bool) "non-zero exit" true (code <> 0))

(* ---------------- stream error paths ---------------- *)

(* Malformed streams must die with a line-numbered one-liner on stderr
   and exit status 2 — never an uncaught exception with a backtrace. *)
let with_stream text f =
  let path = Filename.temp_file "psched" ".stream" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      f path)

let check_stream_error name text markers =
  with_stream text (fun path ->
      let code, out = run_capture [ "stream"; path ] in
      Alcotest.(check int) (name ^ ": exit 2") 2 code;
      Alcotest.(check bool)
        (name ^ ": no backtrace") false
        (contains out "Raised at");
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: mentions %S" name m)
            true (contains out m))
        markers)

let test_stream_rejects_malformed () =
  check_stream_error "nan workload" "alpha 3\nmachines 1\njob 0 1 nan 5\n"
    [ "line 3"; "workload must be positive and finite" ];
  check_stream_error "negative workload"
    "alpha 3\nmachines 1\njob 0 1 -2 5\n"
    [ "line 3"; "workload" ];
  check_stream_error "deadline before release"
    "alpha 3\nmachines 1\njob 2 1 1 5\n"
    [ "line 3"; "deadline" ];
  check_stream_error "nan value" "alpha 3\nmachines 1\njob 0 1 1 nan\n"
    [ "line 3"; "value must be >= 0" ];
  check_stream_error "job before alpha header" "job 0 1 1 5\n"
    [ "line 1"; "alpha" ];
  check_stream_error "job before machines header" "alpha 3\njob 0 1 1 5\n"
    [ "line 2"; "machines" ];
  check_stream_error "out-of-order arrivals"
    "alpha 3\nmachines 1\njob 5 6 1 5\njob 1 2 1 5\n"
    [ "line 4"; "release-ordered" ];
  check_stream_error "unrecognized line" "alpha 3\nbogus\n"
    [ "line 2"; "unrecognized" ];
  check_stream_error "empty stream" "alpha 3\nmachines 1\n"
    [ "no jobs in the stream" ]

let test_stream_unreadable_input () =
  let code, out = run_capture [ "stream"; "/nonexistent/stream.txt" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "no backtrace" false (contains out "Raised at")

let test_stream_bad_restore () =
  with_stream "alpha 3\nmachines 2\njob 0 1 1 5\n" (fun path ->
      let code, out =
        run_capture [ "serve"; path; "--restore"; "/nonexistent" ]
      in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check bool) "no backtrace" false (contains out "Raised at"))

let test_stream_sharded_needs_machines () =
  with_stream "alpha 3\nmachines 1\njob 0 1 1 5\n" (fun path ->
      let code, out = run_capture [ "serve"; path; "--shards"; "4" ] in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check bool)
        "explains the split" true
        (contains out "machines >= shards"))

let with_tmp_dir f =
  let dir = Filename.temp_file "psched" ".ck" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> Sys.remove (Filename.concat dir n))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* The failover loop end to end, through the real binary: run sharded,
   kill mid-stream after a checkpoint, restore, and require the stitched
   output to be byte-identical to the straight-through run. *)
let test_stream_kill_restore_byte_identical () =
  with_tmp_dir (fun dir ->
      let inst = Filename.temp_file "psched" ".inst" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists inst then Sys.remove inst)
        (fun () ->
          let code, _ =
            run_capture
              [ "generate"; "--preset"; "random"; "-n"; "120"; "-m"; "4";
                "--seed"; "7"; "-o"; inst ]
          in
          Alcotest.(check int) "generate" 0 code;
          let code, full = run_capture [ "serve"; inst; "--shards"; "4" ] in
          Alcotest.(check int) "full run" 0 code;
          let code, part1 =
            run_capture
              [ "serve"; inst; "--shards"; "4"; "--snapshot-dir"; dir;
                "--snapshot-every"; "40"; "--kill-after"; "100" ]
          in
          Alcotest.(check int) "killed run exits 0" 0 code;
          let code, part2 = run_capture [ "serve"; inst; "--restore"; dir ] in
          Alcotest.(check int) "restored run" 0 code;
          (* records are 8 lines each; the last committed checkpoint is at
             seq 80, so the restored run re-emits from there *)
          let lines = String.split_on_char '\n' part1 in
          let prefix =
            List.filteri (fun i _ -> i < 8 * 80) lines |> String.concat "\n"
          in
          Alcotest.(check string)
            "stitched output equals the straight-through run" full
            (prefix ^ "\n" ^ part2)))

(* Bad input of every kind, on every command, is a one-line diagnostic
   and exit 2 — never an internal error. *)
let check_exit_2 ?says name args =
  let code, out = run_capture args in
  Alcotest.(check int) (name ^ ": exit 2") 2 code;
  Option.iter
    (fun needle ->
      Alcotest.(check bool) (name ^ ": says " ^ needle) true
        (contains out needle))
    says;
  Alcotest.(check bool)
    (name ^ ": no internal error") false
    (contains out "internal error" || contains out "Raised at");
  Alcotest.(check int)
    (name ^ ": one line of diagnostics") 1
    (List.length (String.split_on_char '\n' (String.trim out)))

let test_bad_input_exits_2 () =
  List.iter
    (fun args -> check_exit_2 (String.concat " " args) args)
    [
      [ "generate"; "--preset"; "bogus" ];
      [ "generate"; "-n"; "0"; "--preset"; "datacenter" ];
      [ "generate"; "-m"; "0"; "--preset"; "datacenter" ];
      [ "generate"; "--alpha"; "1"; "--preset"; "random" ];
      [ "generate"; "--alpha"; "nan" ];
      [ "generate"; "--alpha"; "0.5"; "--preset"; "bkp" ];
      [ "generate"; "-n"; "3"; "-o"; "no-such-dir/inst.txt" ];
    ];
  with_stream "alpha 3\nmachines 2\njob 0 1 1 5\n" (fun path ->
      check_exit_2 "stream --delta=-1" [ "stream"; path; "--delta=-1" ];
      check_exit_2 "stream -a oa on 2 machines" [ "stream"; path; "-a"; "oa" ];
      (* flag and header errors are not blamed on the first job line *)
      check_exit_2 ~says:"psched stream: --delta must be finite and > 0"
        "stream --delta nan" [ "stream"; path; "--delta"; "nan" ];
      check_exit_2 ~says:"line 2: 2 machines cannot be split across --shards 4"
        "serve, default --shards 4 on 2 machines" [ "serve"; path ];
      (* a flag error, not an input line's: blamed on --workers up front *)
      check_exit_2 ~says:"--workers must be >= 1"
        "serve --shards 2 --workers 0"
        [ "serve"; path; "--shards"; "2"; "--workers"; "0" ];
      (* periodic checkpoints need somewhere to go *)
      check_exit_2 ~says:"needs --snapshot-dir" "serve --snapshot-every 7"
        [ "serve"; path; "--shards"; "2"; "--snapshot-every"; "7" ]);
  with_stream "alpha 3\nmachines 2\nbogus\n" (fun path ->
      List.iter
        (fun cmd ->
          check_exit_2 (cmd ^ " on a malformed instance") [ cmd; path ])
        [ "run"; "compare"; "certify"; "analyze"; "provision"; "replay";
          "gantt" ]);
  with_instance (fun path ->
      check_exit_2 "run --decisions-only, offline algorithm"
        [ "run"; path; "--decisions-only"; "-a"; "opt-energy" ];
      check_exit_2 "gantt --width=-5" [ "gantt"; path; "--width=-5" ];
      check_exit_2 "gantt --width 0" [ "gantt"; path; "--width"; "0" ]);
  with_stream "alpha 3\nmachines 1\njob 0 1 1 5\n" (fun path ->
      with_tmp_dir (fun dir ->
          let code, _ =
            run_capture
              [ "serve"; path; "--shards"; "1"; "--snapshot-dir"; dir ]
          in
          Alcotest.(check int) "checkpointing run" 0 code;
          check_exit_2 "serve --restore --workers 0"
            [ "serve"; path; "--restore"; dir; "--workers"; "0" ]))

(* Negative counts are refused: --snapshot-every=-3 would satisfy neither
   the periodic (> 0) nor the final (= 0) checkpoint condition, so it
   would exit 0 having written nothing. *)
let test_serve_negative_counts () =
  with_stream "alpha 3\nmachines 1\njob 0 1 1 5\n" (fun path ->
      with_tmp_dir (fun dir ->
          let ckpt = Filename.concat dir "ckpt" in
          check_exit_2 "--snapshot-every=-3"
            [ "serve"; path; "--shards"; "1"; "--snapshot-dir"; ckpt;
              "--snapshot-every=-3" ];
          Alcotest.(check bool)
            "no checkpoint directory" false (Sys.file_exists ckpt);
          check_exit_2 "--migrate-every=-1"
            [ "serve"; path; "--shards"; "1"; "--migrate-every=-1" ];
          check_exit_2 "--kill-after=-1"
            [ "serve"; path; "--shards"; "1"; "--kill-after=-1" ]))

(* `stream` is the single-engine command only: sharding, checkpoints and
   restore belong to `serve`. *)
let test_stream_has_no_service_flags () =
  with_stream "alpha 3\nmachines 2\njob 0 1 1 5\n" (fun path ->
      List.iter
        (fun flag ->
          let code, out = run_capture [ "stream"; path; flag; "1" ] in
          Alcotest.(check bool) (flag ^ ": refused") true (code <> 0);
          Alcotest.(check bool)
            (flag ^ ": as an unknown option") true
            (contains out "unknown option"))
        [ "--shards"; "--workers"; "--snapshot-dir"; "--snapshot-every";
          "--restore"; "--kill-after"; "--snapshot" ])

(* ---------------- slint ---------------- *)

let slint =
  let candidates =
    [ "../bin/slint.exe"; "_build/default/bin/slint.exe"; "bin/slint.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/slint.exe"

let run_slint args =
  let out = Filename.temp_file "slint" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote slint)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A throwaway scan root holding lib/fixture.ml with the given text (plus
   an interface so missing-mli stays quiet). *)
let with_lint_tree text f =
  let root = Filename.temp_file "slint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let rm p = if Sys.file_exists p then Sys.remove p in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> rm (Filename.concat (Filename.concat root "lib") name))
        (Sys.readdir (Filename.concat root "lib"));
      Array.iter
        (fun name ->
          let p = Filename.concat root name in
          if not (Sys.is_directory p) then rm p)
        (Sys.readdir root);
      Sys.rmdir (Filename.concat root "lib");
      Sys.rmdir root)
    (fun () ->
      write_file (Filename.concat root "lib/fixture.ml") text;
      write_file (Filename.concat root "lib/fixture.mli") "";
      f root)

let clean_source = "let f x = x + 1\n"

let racy_source =
  "let total = ref 0\n\
   let add x = total := !total + x\n\
   let go xs = Domain.spawn (fun () -> List.iter add xs)\n"

let test_slint_exit_codes () =
  with_lint_tree clean_source (fun root ->
      let code, _ = run_slint [ "--root"; root ] in
      Alcotest.(check int) "clean tree exits 0" 0 code);
  with_lint_tree racy_source (fun root ->
      let code, text = run_slint [ "--root"; root ] in
      Alcotest.(check int) "finding exits 1" 1 code;
      Alcotest.(check bool)
        "names the rule" true
        (contains text "domain-race"));
  let code, text = run_slint [ "--rule"; "no-such-rule"; "--root"; "." ] in
  Alcotest.(check int) "unknown rule exits 2" 2 code;
  Alcotest.(check bool) "lists known rules" true (contains text "domain-race");
  let code, text = run_slint [ "--help" ] in
  Alcotest.(check int) "help exits 0" 0 code;
  Alcotest.(check bool) "documents exit codes" true (contains text "Exit codes")

let test_slint_rule_filter () =
  with_lint_tree racy_source (fun root ->
      (* an unrelated single rule does not see the race *)
      let code, _ = run_slint [ "--root"; root; "--rule"; "float-eq" ] in
      Alcotest.(check int) "filtered rule exits 0" 0 code;
      let code, text = run_slint [ "--root"; root; "--rule"; "domain-race" ] in
      Alcotest.(check int) "selected rule exits 1" 1 code;
      Alcotest.(check bool) "reports the race" true (contains text "domain-race"))

let test_slint_sarif () =
  with_lint_tree racy_source (fun root ->
      let sarif = Filename.temp_file "slint" ".sarif" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists sarif then Sys.remove sarif)
        (fun () ->
          let code, _ = run_slint [ "--root"; root; "--sarif"; sarif ] in
          Alcotest.(check int) "still exits 1" 1 code;
          let text = read_file sarif in
          Alcotest.(check bool)
            "sarif version" true
            (contains text {|"version":"2.1.0"|});
          Alcotest.(check bool)
            "result carries the rule id" true
            (contains text {|"ruleId":"domain-race"|});
          Alcotest.(check bool)
            "physical location present" true
            (contains text "lib/fixture.ml")))

let test_slint_write_baseline () =
  with_lint_tree racy_source (fun root ->
      let code, _ = run_slint [ "--root"; root; "--write-baseline" ] in
      Alcotest.(check int) "write exits 0" 0 code;
      let baseline = Filename.concat root "lint-baseline.sexp" in
      Alcotest.(check bool)
        "baseline written" true
        (contains (read_file baseline) "domain-race");
      (* the grandfathered finding no longer fails the scan *)
      let code, _ = run_slint [ "--root"; root ] in
      Alcotest.(check int) "baselined tree exits 0" 0 code)

let test_slint_baseline_rot () =
  with_lint_tree racy_source (fun root ->
      let code, _ = run_slint [ "--root"; root; "--write-baseline" ] in
      Alcotest.(check int) "write exits 0" 0 code;
      (* the finding disappears from the source: its entry is now rot,
         and rot is a failure, not a silent free pass *)
      write_file (Filename.concat root "lib/fixture.ml") clean_source;
      let code, text = run_slint [ "--root"; root ] in
      Alcotest.(check int) "stale entry exits 1" 1 code;
      Alcotest.(check bool)
        "explains the staleness" true
        (contains text "stale baseline entry");
      Alcotest.(check bool)
        "points at the cure" true
        (contains text "--update-baseline");
      (* --update-baseline prunes exactly the rotten entries *)
      let code, text = run_slint [ "--root"; root; "--update-baseline" ] in
      Alcotest.(check int) "prune exits 0" 0 code;
      Alcotest.(check bool) "reports the prune" true (contains text "pruned");
      let baseline = Filename.concat root "lint-baseline.sexp" in
      Alcotest.(check bool)
        "entry gone from the file" false
        (contains (read_file baseline) "domain-race");
      let code, _ = run_slint [ "--root"; root ] in
      Alcotest.(check int) "pruned tree exits 0" 0 code)

let test_slint_explain () =
  let code, text = run_slint [ "--explain"; "domain-race" ] in
  Alcotest.(check int) "explain exits 0" 0 code;
  Alcotest.(check bool) "names the rule" true (contains text "domain-race");
  Alcotest.(check bool)
    "includes the doc" true
    (contains text "Atomic/Mutex");
  Alcotest.(check bool)
    "whole-program rules say so" true
    (contains text "whole-program");
  Alcotest.(check bool)
    "shows the suppression syntax" true
    (contains text ("slint: " ^ "allow"));
  let code, text = run_slint [ "--explain"; "nan-flow" ] in
  Alcotest.(check int) "nan-flow explain exits 0" 0 code;
  Alcotest.(check bool) "has an example" true (contains text "Example:");
  let code, text = run_slint [ "--explain"; "no-such-rule" ] in
  Alcotest.(check int) "unknown rule exits 2" 2 code;
  Alcotest.(check bool)
    "lists the known rules" true
    (contains text "magic-tolerance")

let () =
  Alcotest.run "cli"
    [
      ( "psched",
        [
          Alcotest.test_case "generate" `Quick test_generate_stdout;
          Alcotest.test_case "run" `Quick test_run_pd;
          Alcotest.test_case "run schedule" `Quick test_run_with_schedule;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "engines" `Quick test_engines;
          Alcotest.test_case "certify" `Quick test_certify;
          Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "provision" `Quick test_provision;
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "gantt" `Quick test_gantt;
          Alcotest.test_case "unknown algorithm" `Quick
            test_unknown_algorithm_fails;
          Alcotest.test_case "bad input exits 2" `Quick test_bad_input_exits_2;
        ] );
      ( "stream",
        [
          Alcotest.test_case "rejects malformed streams" `Quick
            test_stream_rejects_malformed;
          Alcotest.test_case "unreadable input" `Quick
            test_stream_unreadable_input;
          Alcotest.test_case "bad --restore" `Quick test_stream_bad_restore;
          Alcotest.test_case "machines < shards" `Quick
            test_stream_sharded_needs_machines;
          Alcotest.test_case "kill/restore byte-identical" `Quick
            test_stream_kill_restore_byte_identical;
          Alcotest.test_case "negative counts exit 2" `Quick
            test_serve_negative_counts;
          Alcotest.test_case "no service flags" `Quick
            test_stream_has_no_service_flags;
        ] );
      ( "slint",
        [
          Alcotest.test_case "exit codes" `Quick test_slint_exit_codes;
          Alcotest.test_case "--rule filter" `Quick test_slint_rule_filter;
          Alcotest.test_case "--sarif" `Quick test_slint_sarif;
          Alcotest.test_case "--write-baseline" `Quick
            test_slint_write_baseline;
          Alcotest.test_case "baseline rot" `Quick test_slint_baseline_rot;
          Alcotest.test_case "--explain" `Quick test_slint_explain;
        ] );
    ]
