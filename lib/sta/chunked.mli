(** Storage that grows in chunks, for what exploration keeps per state
    ({!Walker.Table}, the CTMC explorer's rows).  A full chunk is left
    where it is and the next one is made when it is first asked for, so
    growing a large store copies nothing: only the spine, one word a
    chunk, doubles.  A small store pays only for the chunks it
    writes. *)

type 'c t
(** A sequence of chunks of type ['c] ([int array], [Float.Array.t],
    [Bytes.t], …), each made by the function given to {!create}. *)

val size : int
(** Entries in a chunk of per-entry data: 1024. *)

val create : (int -> 'c) -> 'c t
(** [create make]: chunk [k] is [make k]. *)

val chunk : 'c t -> int -> 'c
(** [chunk v k] is the [k]th chunk, made together with every chunk
    before it when first asked for. *)

(** {1 Per-entry data}

    Entry [i] is entry [i mod size] of chunk [i / size]. *)

val entries : 'a -> 'a array t
(** Chunks of {!size} entries made full of the given value, except the
    first: it starts at 64 entries and doubles as it is written, up to
    {!size}.  That is the one chunk ever copied, and a small table pays
    for no more than it writes. *)

val get : 'a array t -> int -> 'a
(** An entry that was {!set}. *)

val get_or : 'a array t -> int -> 'a -> 'a
(** [get_or v i x] is entry [i], or [x] when nothing was ever {!set}
    at or past it in its chunk: it makes no chunk.  With [x] the value
    the chunks are made full of, a store read this way needs {!set}
    only for entries that differ from [x]. *)

val set : 'a array t -> int -> 'a -> unit

val to_array : 'a array t -> int -> 'a array
(** [to_array v n] copies entries [0 .. n - 1] into one array. *)
