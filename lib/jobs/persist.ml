(* The forked worker protocol: the one place in the repo that forks, feeds,
   reaps and replaces worker processes.

   Each worker is a [Unix.fork] of the parent running [f] in a loop: it
   inherits [f] (and everything [f] closes over) through the fork, so only
   task and result *values* cross its two pipes, each as one marshalled
   message.  Workers are forked once at [create] and live for the pool's
   lifetime, so per-worker warm state (lazily built caches inside [f]'s
   closure) persists across jobs.  The parent side is a set of primitives
   for whoever owns the event loop:

     let p = Persist.create ~jobs:4 f in
     ... select ( your fds @ Persist.fds p ) ...
     match Persist.try_submit p task with
     | Some ticket -> ...                  (* dispatched to an idle worker *)
     | None -> ...                         (* all workers busy: queue or shed *)
     Option.iter handle (Persist.handle_ready p fd);  (* fd came up readable *)
     List.iter handle (Persist.expire p ~now);        (* enforce timeouts *)

   or, without an event loop of one's own, [Persist.poll].  The obfuscation
   server drives it from its socket loop; [Pool.map] is the batch driver
   over it.  Crash isolation: an exception in [f] comes back as [Failed]; a
   worker that dies outright (segfault, OOM kill, [Unix._exit]) is seen as
   EOF on its result pipe, reaped, replaced, and its job comes back as
   [Failed] with [j_died] set so a caller can retry it.  A worker past its
   deadline is SIGKILLed and replaced, its job coming back as [Timed_out].
   Capacity therefore never decays. *)

type 'r outcome =
  | Done of 'r
  | Failed of string       (* exception in [f], or the worker's death *)
  | Timed_out of float     (* seconds the job ran before SIGKILL *)

(* A collected job: its ticket, its outcome, and the worker's clocks —
   wall time plus [Unix.times] CPU deltas around [f] (wall time alone cannot
   tell a recompute from a job that sat in a page-cache stall).  When there
   is no report (death, timeout) the wall time is the parent's and the CPU
   times are 0. *)
type 'r job = {
  j_ticket : int;
  j_outcome : 'r outcome;
  j_died : bool;           (* [Failed] by the worker's death, not by [f] *)
  j_wall_s : float;
  j_utime_s : float;
  j_stime_s : float;
}

(* --- worker side ----------------------------------------------------------- *)

(* The worker marshals its result to a string itself, so an unmarshallable
   result (a closure smuggled into a result type) degrades to a [Failed]
   instead of desynchronizing the pipe protocol. *)
type reply = R_ok of string | R_exn of string

(* Everything the worker reports per job: the reply, its clocks, and the
   delta of the metrics registry across [f], so the parent can
   [Obs.Metrics.absorb] per-worker instrumentation into its own registry.
   The snapshot is plain data and the diff of two identical snapshots is [],
   so with metrics disabled the extra pipe traffic is an empty list. *)
type job_report = {
  jr_reply : reply;
  jr_wall_s : float;
  jr_utime_s : float;
  jr_stime_s : float;
  jr_metrics : Obs.Metrics.snapshot;
}

let worker_loop (f : 'a -> 'b) ic oc =
  let rec loop () =
    let (task : 'a) = Marshal.from_channel ic in
    let t0 = Unix.gettimeofday () in
    let tm0 = Unix.times () in
    let m0 = Obs.Metrics.snapshot () in
    let reply =
      match f task with
      | r ->
        (try R_ok (Marshal.to_string r [])
         with Invalid_argument m -> R_exn ("unmarshallable result: " ^ m))
      | exception e -> R_exn (Printexc.to_string e)
    in
    let tm1 = Unix.times () in
    Marshal.to_channel oc
      { jr_reply = reply;
        jr_wall_s = Unix.gettimeofday () -. t0;
        jr_utime_s = tm1.Unix.tms_utime -. tm0.Unix.tms_utime;
        jr_stime_s = tm1.Unix.tms_stime -. tm0.Unix.tms_stime;
        jr_metrics = Obs.Metrics.diff m0 (Obs.Metrics.snapshot ()) }
      [];
    flush oc;
    loop ()
  in
  (try loop () with End_of_file | Sys_error _ -> ());
  Unix._exit 0

type worker = {
  w_pid : int;
  w_oc : out_channel;      (* parent -> worker: task *)
  w_ic : in_channel;       (* worker -> parent: job_report *)
  w_recv : Unix.file_descr;
  (* ticket, dispatch time, deadline (infinity if no timeout) *)
  mutable w_job : (int * float * float) option;
}

let spawn ~inherited f =
  (* anything buffered now would be flushed a second time by the child's
     stdio if it ever wrote; keep the child's buffers empty *)
  flush stdout;
  flush stderr;
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Drop every parent-side descriptor, including the pipes of sibling
       workers forked earlier: a sibling can only see the parent's EOF if
       no other process still holds the write end. *)
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      inherited;
    Unix.close task_w;
    Unix.close res_r;
    (* the parent owns shutdown: it SIGKILLs workers deterministically *)
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    worker_loop f
      (Unix.in_channel_of_descr task_r)
      (Unix.out_channel_of_descr res_w)
  | pid ->
    Unix.close task_r;
    Unix.close res_w;
    { w_pid = pid;
      w_oc = Unix.out_channel_of_descr task_w;
      w_ic = Unix.in_channel_of_descr res_r;
      w_recv = res_r;
      w_job = None }

(* --- parent side ----------------------------------------------------------- *)

type ('a, 'b) t = {
  p_f : 'a -> 'b;                      (* kept for respawns *)
  p_jobs : int;
  p_timeout_s : float option;
  mutable p_workers : worker list;
  mutable p_next : int;                (* next ticket *)
  mutable p_stopped : bool;
}

let spawn_one t =
  let inherited =
    List.concat_map
      (fun w -> [ Unix.descr_of_out_channel w.w_oc; w.w_recv ])
      t.p_workers
  in
  t.p_workers <- t.p_workers @ [ spawn ~inherited t.p_f ]

let create ?timeout_s ~jobs (f : 'a -> 'b) : ('a, 'b) t =
  if jobs < 1 then invalid_arg "Jobs.Persist.create: jobs must be >= 1";
  let t =
    { p_f = f; p_jobs = jobs; p_timeout_s = timeout_s; p_workers = [];
      p_next = 0; p_stopped = false }
  in
  for _ = 1 to jobs do spawn_one t done;
  t

let size t = t.p_jobs

let busy t = List.length (List.filter (fun w -> w.w_job <> None) t.p_workers)

let idle t = List.length t.p_workers - busy t

(* Result-pipe descriptors of busy workers: what an external event loop
   should select on alongside its own fds. *)
let fds t =
  List.filter_map
    (fun w -> if w.w_job = None then None else Some w.w_recv)
    t.p_workers

let next_deadline t =
  List.fold_left
    (fun acc w ->
       match w.w_job with Some (_, _, dl) -> Float.min acc dl | None -> acc)
    infinity t.p_workers

let reap w =
  match Unix.waitpid [] w.w_pid with
  | (_, Unix.WEXITED c) -> Printf.sprintf "exit %d" c
  | (_, Unix.WSIGNALED s) -> Printf.sprintf "signal %d" s
  | (_, Unix.WSTOPPED s) -> Printf.sprintf "stopped %d" s
  | exception Unix.Unix_error _ -> "unknown"

let kill w = try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Reap a dead or killed worker, close its pipes and fork a replacement so
   the pool stays at [p_jobs] capacity.  Returns the worker's exit status. *)
let replace t w =
  let st = reap w in
  close_out_noerr w.w_oc;
  close_in_noerr w.w_ic;
  t.p_workers <- List.filter (fun x -> x != w) t.p_workers;
  if not t.p_stopped then spawn_one t;
  st

(* Dispatch to an idle worker.  [None] means every worker is busy — the
   caller queues or sheds; that admission policy deliberately lives outside
   this module.  A worker that dies on dispatch is replaced and the dispatch
   retried on another idle worker (each attempt consumes a distinct ticket
   only on success). *)
let rec try_submit (t : ('a, 'b) t) (task : 'a) : int option =
  if t.p_stopped then None
  else
    match List.find_opt (fun w -> w.w_job = None) t.p_workers with
    | None -> None
    | Some w ->
      let ticket = t.p_next in
      (match
         Marshal.to_channel w.w_oc task [ Marshal.Closures ];
         flush w.w_oc
       with
       | () ->
         t.p_next <- ticket + 1;
         let now = Unix.gettimeofday () in
         let deadline =
           match t.p_timeout_s with Some s -> now +. s | None -> infinity
         in
         w.w_job <- Some (ticket, now, deadline);
         Some ticket
       | exception _ ->
         kill w;
         ignore (replace t w);
         try_submit t task)

(* A result-pipe descriptor came up readable: collect the finished job.
   Also the place worker *death* is detected (EOF instead of a report). *)
let handle_ready (t : ('a, 'b) t) (fd : Unix.file_descr) : 'b job option =
  match List.find_opt (fun w -> w.w_recv = fd && w.w_job <> None) t.p_workers
  with
  | None -> None
  | Some w ->
    let (ticket, started, _) = Option.get w.w_job in
    (match (Marshal.from_channel w.w_ic : job_report) with
     | jr ->
       w.w_job <- None;
       Obs.Metrics.absorb jr.jr_metrics;
       let outcome =
         match jr.jr_reply with
         | R_ok s -> Done (Marshal.from_string s 0 : 'b)
         | R_exn m -> Failed m
       in
       Some { j_ticket = ticket; j_outcome = outcome; j_died = false;
              j_wall_s = jr.jr_wall_s; j_utime_s = jr.jr_utime_s;
              j_stime_s = jr.jr_stime_s }
     | exception (End_of_file | Sys_error _ | Failure _) ->
       let dt = Unix.gettimeofday () -. started in
       let st = replace t w in
       Some { j_ticket = ticket;
              j_outcome = Failed (Printf.sprintf "worker died (%s)" st);
              j_died = true; j_wall_s = dt; j_utime_s = 0.0; j_stime_s = 0.0 })

(* Kill workers past their deadline; their jobs surface as [Timed_out]. *)
let expire (t : ('a, 'b) t) ~now : 'b job list =
  List.filter_map
    (fun w ->
       match w.w_job with
       | Some (ticket, started, dl) when now >= dl ->
         kill w;
         ignore (replace t w);
         let dt = now -. started in
         Some { j_ticket = ticket; j_outcome = Timed_out dt; j_died = false;
                j_wall_s = dt; j_utime_s = 0.0; j_stime_s = 0.0 }
       | _ -> None)
    t.p_workers

(* Enforce deadlines, then block until an in-flight result is ready (or
   [timeout_s] or the next deadline passes, or a signal arrives) and collect
   everything readable.  For callers without a select loop of their own. *)
let poll (t : ('a, 'b) t) ~timeout_s : 'b job list =
  let now = Unix.gettimeofday () in
  let expired = expire t ~now in
  if expired <> [] then expired
  else
    match fds t with
    | [] -> []
    | watch ->
      let wait = Float.max 0.0 (Float.min timeout_s (next_deadline t -. now)) in
      let ready, _, _ =
        try Unix.select watch [] [] wait
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.filter_map (handle_ready t) ready

(* Tear the pool down: SIGKILL and reap every worker.  Workers are killed
   rather than asked: a graceful close could block forever behind a worker
   mid-way through writing a large reply nobody will read.  Callers wanting
   in-flight work finished drain via [poll] first (the server's signal path
   does).  Idempotent. *)
let shutdown t =
  t.p_stopped <- true;
  List.iter kill t.p_workers;
  List.iter (fun w -> ignore (replace t w)) t.p_workers
