type t = { mutable last_id : int; mutable last_release : float }

(* [last_release] stays [neg_infinity] until the first admission: Job.make
   keeps every release finite, so it doubles as the "nothing admitted
   yet" mark under which no id bound applies. *)
let create () = { last_id = 0; last_release = Float.neg_infinity }

let admit ~err t (j : Job.t) =
  if Float.is_finite t.last_release && j.id <= t.last_id then
    invalid_arg
      (Fmt.str "%s: job id %d does not exceed the previous id %d" err j.id
         t.last_id);
  if j.release < t.last_release then
    invalid_arg
      (Fmt.str "%s: job %d released at %g, before the previous release %g" err
         j.id j.release t.last_release);
  t.last_id <- j.id;
  t.last_release <- j.release

let last_release t = t.last_release
