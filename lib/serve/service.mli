(** The resident campaign service behind [slimsim serve].

    One process, one Unix-domain socket, many tenants: submissions are
    admitted against per-tenant budgets, their models resolved through
    the compiled-network {!Cache}, started by {!Slimsim.start} and their
    campaigns time-sliced by the fair-share {!Scheduler} — a campaign that
    still needs samples after its slice is parked (when others are
    waiting) and resumes bit-identically on its next turn, so service
    answers equal one-shot [slimsim simulate] answers by construction.

    The event loop is single-threaded [select]: requests are parsed and
    answered between slices, and a [wait] defers its response until the
    campaign finishes.  Telemetry rides the existing observability
    stack — Prometheus series under [slimsim_serve_*] plus JSONL events
    — and is enabled for the lifetime of {!run}. *)

type config = {
  socket_path : string;
  cache_capacity : int;  (** resident compiled networks (default 8) *)
  slice : int;  (** paths per scheduling slice (default 64) *)
  max_campaigns_per_tenant : int;
      (** admission control: unfinished campaigns one tenant may hold
          (default 4); further submissions are rejected, not queued *)
  max_paths_per_campaign : int option;
      (** per-campaign path budget; exceeding it stops the campaign
          cooperatively and reports a partial, [interrupted] estimate
          with ["budget":"paths"] *)
  max_wall_per_campaign : float option;
      (** per-campaign active-stepping budget in seconds (parked time is
          not billed), same reporting with ["budget":"wall"] *)
  max_workers : int;  (** cap on a submission's requested workers *)
  metrics_file : string option;
      (** written (atomic tmp + rename) at shutdown *)
  event_log : string option;  (** JSONL sink for serve events *)
}

val default_config : socket_path:string -> config

val run : config -> unit
(** Bind, listen and serve until a [shutdown] request or SIGINT/SIGTERM.
    On the way out every unfinished campaign is stopped cooperatively,
    waiters are answered with its partial estimate, the socket file is
    unlinked, and [metrics_file] (when configured) is written. *)
