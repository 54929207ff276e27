(** The coordinator/worker wire protocol: length-prefixed JSON frames
    over the worker's stdin/stdout.

    A frame is [<decimal payload length>\n<payload>\n]; the payload is
    one JSON object with a ["type"] field.  Length-prefixing (rather
    than line-framing as in the serve protocol) lets the coordinator
    detect torn frames — a worker killed mid-write leaves a prefix that
    fails to complete, and a corrupted length or payload is rejected
    without resynchronization heuristics: the worker is declared failed
    and its leases reassigned.

    The handshake carries the checkpoint header's magic word and format
    version ({!Slimsim_sim.Supervisor.Checkpoint.magic} /
    [format_version]): the coordinator's persisted state is the
    checkpoint format, so a worker that cannot speak it must not
    contribute batches.  Version mismatches are rejected with a clear
    error, never a decode failure.

    Verdicts travel as one class character per path
    ({!Slimsim_sim.Lease.code}: ['s'] Sat, ['h']
    horizon, ['d'] deadlock, ['t'] timelock, ['v'] hold-violated, ['g']
    diverged, ['e'] errored) — everything the collector's accounting
    consumes.  The payloads dropped ([Sat]'s hit time, [Unsat_violated]'s
    violation time) are not observable in the estimate; divergence kinds
    and error details, which are (via the abort policies and the error
    report), travel in side tables keyed by absolute path id. *)

open Slimsim_sim

(** {1 Framing} *)

val max_frame : int
(** Upper bound on an accepted payload (16 MiB); a larger announced
    length is treated as a corrupt frame. *)

val write_frame : out_channel -> Slimsim_obs.Json.t -> unit
(** Write one frame and flush. *)

type reader
(** Incremental frame decoder over an arbitrary byte stream. *)

val reader : unit -> reader
val feed : reader -> bytes -> int -> unit

val next : reader -> (Slimsim_obs.Json.t option, string) result
(** [Ok None]: no complete frame buffered yet.  [Error]: the stream is
    corrupt (bad length, oversized frame, malformed JSON); the reader
    must be discarded. *)

(** {1 Frames} *)

type hello = {
  version : int;  (** {!Supervisor.Checkpoint.format_version} *)
  worker : int;  (** worker slot index *)
  attempt : int;  (** 0 for the first spawn, +1 per respawn *)
  seed : int64;
  model_source : string;
  property : string;
  strategy : string;
  max_steps : int;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_deadlock : string;  (** ["error"] or ["falsify"] *)
  batch : int;  (** verdicts per batch frame *)
  heartbeat : float;  (** worker heartbeat interval, seconds *)
  chaos : string;  (** fault-injection spec, [""] for none *)
}

val hello_to_json : hello -> Slimsim_obs.Json.t
val hello_of_json : Slimsim_obs.Json.t -> (hello, string) result
(** Checks the magic word and format version; a mismatch is an [Error]
    naming both versions. *)

(** Coordinator -> worker. *)
type directive =
  | Hello of hello
  | Lease of { id : int; lo : int; hi : int }
  | Shutdown

val directive_to_json : directive -> Slimsim_obs.Json.t
val directive_of_json : Slimsim_obs.Json.t -> (directive, string) result

type batch = {
  lease : int;
  start : int;  (** absolute path id of [verdicts.[0]] *)
  verdicts : string;  (** one class char per consecutive path *)
  divs : (int * Path.divergence) list;  (** absolute path id -> kind *)
  errs : (int * Path.error) list;  (** absolute path id -> error *)
}

(** Worker -> coordinator. *)
type report =
  | Ready of { version : int; pid : int }
  | Batch of batch
  | Heartbeat of { path : int }  (** the path currently being simulated *)
  | Failed of { msg : string }  (** terminal worker-side error *)

val report_to_json : report -> Slimsim_obs.Json.t
val report_of_json : Slimsim_obs.Json.t -> (report, string) result
