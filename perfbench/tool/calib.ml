(* calib — a fixed amount of OCaml work, independent of the code under
   test, whose CPU time measures how fast the host runs right now.

   The kernel mixes hash-table updates, float maths, an array sort, list
   building, short allocations that die young and a few that survive to
   the major heap, and %.17g formatting: the kinds of work psched's
   parse, admission and JSON paths do. *)

let () =
  let n = 50_000 in
  let h = Hashtbl.create 1024 in
  let keep = ref [] in
  let acc = ref 0. in
  for round = 1 to 3 do
    for i = 0 to n - 1 do
      Hashtbl.replace h ((i * 7919) mod n) (float_of_int (i + round))
    done;
    let a = Array.init n (fun i -> sin (float_of_int (i + round))) in
    Array.sort Float.compare a;
    let l = List.init 20_000 (fun i -> (i, Float.sqrt (float_of_int i))) in
    keep := List.filteri (fun i _ -> i mod 64 = 0) l :: !keep;
    let b = Buffer.create 4096 in
    List.iter
      (fun (i, f) ->
        if i land 7 = 0 then Buffer.add_string b (Printf.sprintf "%.17g," f))
      l;
    acc := !acc +. a.(0) +. float_of_int (Buffer.length b + Hashtbl.length h)
  done;
  print_endline (string_of_float (!acc +. float_of_int (List.length !keep)))
