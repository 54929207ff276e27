(** Scripted fault injection for worker processes, driving the
    determinism-under-failure tests.

    A spec is a semicolon-separated list of rules:

    {v
    rule   ::= [selector] action '@' trigger [':' arg]
    selector ::= 'w' INT ':'        (only worker slot INT)
               | 'a' INT ':'        (only process incarnation INT)
               | 'w' INT 'a' INT ':'
    trigger ::= INT                 (right before simulating that path id)
              | 'boot'              (right after the handshake)
    action ::= 'kill'               (SIGKILL self: abrupt death, torn frame)
             | 'exit'               (clean exit, code arg or 3)
             | 'stall'              (stop simulating and heartbeating)
             | 'corrupt'            (emit a garbage frame, then continue)
             | 'dup'                (send the next batch frame twice)
             | 'delay'              (sleep arg seconds, default 0.2)
    v}

    Examples: ["a0:kill@120"] — whichever worker first simulates path
    120 dies there, once (its respawn is incarnation 1 and skips the
    rule); ["w1:exit@boot"] — slot 1 exits at every boot until its
    restart budget quarantines it.

    Rules fire at most once per process incarnation.  The spec travels
    in the handshake, so remote workers honor it too. *)

type action = Kill | Exit of int | Stall | Corrupt | Dup | Delay of float

type t

val none : t

val parse : string -> (t, string) result
(** [""] parses to {!none}. *)

val to_string : t -> string

val fire : t -> worker:int -> attempt:int -> path:int -> action option
(** The first not-yet-fired rule matching (worker, attempt) whose
    trigger is path id [path] — or the boot trigger when [path] is
    [-1].  Marks the rule fired. *)
