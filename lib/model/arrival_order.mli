(** The arrival contract every online layer enforces, defined once: job
    ids {e strictly increase} and releases {e never decrease} (equal
    releases are fine).  Both are comparisons with the previous arrival,
    so the check is O(1) in time and space however long the stream runs.
    [Online.Make], [Pd_core.Make] (hence [Pd] and [Npd]) and
    [Oa_engine.step] each hold one [t] and call {!admit} first thing on
    every arrival (doc/ENGINE.md, "Arrival contract"). *)

type t
(** The previous arrival's id and release. *)

val create : unit -> t
(** Nothing admitted yet: the first job is always in order. *)

val admit : err:string -> t -> Job.t -> unit
(** [admit ~err t j] records [j] as the newest arrival, or raises
    [Invalid_argument] (the message prefixed with [err], e.g.
    ["Pd.arrive"]) when [j.id] does not exceed the previous id or
    [j.release] is below the previous release.  A refused job leaves [t]
    unchanged. *)

val last_release : t -> float
(** Release of the newest admitted job ([neg_infinity] before the
    first). *)
