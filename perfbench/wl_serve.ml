(* serve: obfuscation as a service.  The benchmark forks a Serve.Server
   (two resident workers, unbounded queue, no deadline) on a
   Unix socket in _perfbench/ and drives it from this one process over two
   connections with its own open-loop schedule.  The traffic is the cold and the warm
   replay of ropbench_client --selftest, with no guessed mix of the two:

   - cold phase: fresh specs, every cell of registry x config_matrix
     visited the same number of times (three at 25 s) with fixed rewrite
     seeds, so every request is a miss.  Requests are due at a fixed rate
     near cold_rps for 80% of the run, about a tenth of the server's miss
     capacity (a burst of 1200 misses drained at 250-300/s on a 2-core
     box), so that a slower machine lengthens the queues little.  Latency
     is timed from each request's due time, so a stall of the generator or
     the server is charged to every request it delays.  Each latency is
     scaled by the machine's speed around its due time (see
     Common.scaled); a cell's latency is the median over its visits, and
     p50 and p90 are taken over the cells.  The generator's own lateness is
     reported next to them.
   - warm phase: [rounds] replays of the cold phase's specs, each round due
     at once, so every request is a hit.  The rate at which the server
     drains a round is the rate it sustains on cached work, scaled by the
     machine's speed right before and after the round; the median round
     is reported.

   Serve.Loadgen is not reused: in Rate mode it stamps the actual send
   time, so its latencies do not count generator stalls. *)

open Common
module P = Serve.Protocol

let cold_rps = 25.0
let cold_share = 0.8
let rounds = 15
let workers = 2
let dir = "_perfbench"

(* --- the forked server -------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type server = { sv_pid : int; sv_sock : string; sv_cache : string }

let stop sv =
  (match Serve.Client.connect sv.sv_sock with
   | Ok c -> ignore (Serve.Client.shutdown c); Serve.Client.close c
   | Error _ -> (try Unix.kill sv.sv_pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] sv.sv_pid with
    | 0, _ when n > 0 -> Unix.sleepf 0.02; reap (n - 1)
    | 0, _ ->
      (try Unix.kill sv.sv_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] sv.sv_pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 500;
  rm_rf sv.sv_cache;
  (try Sys.remove sv.sv_sock with Sys_error _ -> ())

let start k =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) k in
  let sock = Filename.concat dir ("serve-" ^ tag ^ ".sock") in
  let cache = Filename.concat dir ("cache-" ^ tag) in
  let opts =
    { Serve.Server.default_opts with
      Serve.Server.jobs = workers; cache_dir = cache; max_queue = 1_000_000;
      deadline_ms = None; timeout_s = Some 60.0 }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (* The server and its workers run at the benchmark's priority: at
       nice 5 any other task of the machine took the CPU from them, and
       their p90 rewrite time moved from 13 to 27 ms between runs of the
       same specs (12-13 ms at equal priority). *)
    let rc =
      try Serve.Server.run ~opts (Serve.Server.L_socket sock) with _ -> 1
    in
    Unix._exit rc
  | pid ->
    let sv = { sv_pid = pid; sv_sock = sock; sv_cache = cache } in
    let rec wait n =
      if n = 0 then (stop sv; failwith "server did not come up");
      match Serve.Client.connect sock with
      | Ok c ->
        let up = Serve.Client.ping c = Ok () in
        Serve.Client.close c;
        if not up then (Unix.sleepf 0.001; wait (n - 1))
      | Error _ -> Unix.sleepf 0.001; wait (n - 1)
    in
    wait 10_000;
    sv

(* Warm both workers' tables: per program, two requests in flight at once,
   so each worker compiles and prepares it before the timed phases. *)
let warm sv =
  let conns =
    Array.init workers (fun _ ->
        match Serve.Client.connect sv.sv_sock with
        | Ok c -> c
        | Error m -> failwith m)
  in
  List.iter
    (fun prog ->
       Array.iteri
         (fun i c ->
            P.write_frame c.Serve.Client.t_wfd
              (P.encode_request
                 { P.rq_id = 1;
                   rq_body =
                     P.Rewrite
                       { P.q_prog = Some prog; q_digest = None; q_config = "plain";
                         q_seed = -1 - i; q_want_image = false } }))
         conns;
       Array.iter (fun c -> ignore (P.read_frame c.Serve.Client.t_rfd)) conns)
    (Serve.Oneshot.names ());
  Array.iter Serve.Client.close conns


(* --- the open-loop schedule ------------------------------------------------- *)

type req = {
  r_id : int;
  r_spec : Serve.Oneshot.spec;
  r_due : float;                   (* seconds after the phase start *)
  mutable r_sent : float;          (* absolute *)
  mutable r_done : float;          (* absolute *)
  mutable r_reply : (P.rewrite_reply, int * string) result option;
}

(* Requests for [specs], numbered from [first_id], due every 1/[rate]
   seconds ([rate] infinite: all due at once). *)
let schedule ~first_id ~rate specs =
  Array.of_list
    (List.mapi
       (fun i spec ->
          { r_id = first_id + i; r_spec = spec;
            r_due = (if rate = infinity then 0.0 else float_of_int i /. rate);
            r_sent = 0.0; r_done = 0.0; r_reply = None })
       specs)

(* Latency of a request from its due time, and the generator's lateness in
   sending it, in ms; [t0] is the start of its phase. *)
let latency_ms t0 r = 1000.0 *. (r.r_done -. t0 -. r.r_due)
let late_ms t0 r = 1000.0 *. (r.r_sent -. t0 -. r.r_due)

(* Drive [reqs] against the server: send each at its due time, round-robin
   over the connections, and collect every reply.  Returns the phase's start
   and the reference work's times (see Common.scaled) taken right before
   and after it and, with [sample], every 0.5 s in between while the next
   request is not due for 5 ms or more, each with the time it was taken. *)
let drive ?(sample = false) sv (reqs : req array) =
  let reference () = (now (), reference_time ()) in
  let ks = ref [ reference () ] and last_k = ref (now ()) in
  let conns =
    Array.init workers (fun _ ->
        match Serve.Client.connect sv.sv_sock with
        | Ok c ->
          Unix.set_nonblock c.Serve.Client.t_rfd;
          (c.Serve.Client.t_rfd, P.deframer (), Buffer.create 4096)
        | Error m -> failwith m)
  in
  let byid = Hashtbl.create (Array.length reqs) in
  Array.iter (fun r -> Hashtbl.replace byid r.r_id r) reqs;
  let n = Array.length reqs in
  let next = ref 0 and outstanding = ref 0 in
  let t0 = now () in
  let deadline = t0 +. 120.0 in
  let chunk = Bytes.create 65536 in
  while (!next < n || !outstanding > 0) && now () < deadline do
    let t = now () in
    while !next < n && t0 +. reqs.(!next).r_due <= t do
      let r = reqs.(!next) in
      let _, _, out = conns.(!next mod workers) in
      Buffer.add_string out
        (P.frame
           (P.encode_request
              { P.rq_id = r.r_id;
                rq_body =
                  P.Rewrite
                    { P.q_prog = Some r.r_spec.Serve.Oneshot.sp_prog; q_digest = None;
                      q_config = r.r_spec.Serve.Oneshot.sp_config;
                      q_seed = r.r_spec.Serve.Oneshot.sp_seed; q_want_image = false } }));
      r.r_sent <- t;
      incr next;
      incr outstanding
    done;
    Array.iter
      (fun (fd, _, out) ->
         let len = Buffer.length out in
         if len > 0 then begin
           let s = Buffer.contents out in
           let w =
             try Unix.write_substring fd s 0 len
             with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
           in
           Buffer.clear out;
           if w < len then Buffer.add_string out (String.sub s w (len - w))
         end)
      conns;
    if sample && !next < n && t0 +. reqs.(!next).r_due -. now () >= 0.005
       && now () -. !last_k >= 0.5
    then begin
      ks := reference () :: !ks;
      last_k := now ()
    end;
    let wait =
      if !next < n then Float.max 0.0 (Float.min 0.05 (t0 +. reqs.(!next).r_due -. now ()))
      else 0.05
    in
    let rfds = Array.to_list (Array.map (fun (fd, _, _) -> fd) conns) in
    let wfds =
      Array.to_list conns
      |> List.filter_map (fun (fd, _, out) -> if Buffer.length out > 0 then Some fd else None)
    in
    match Unix.select rfds wfds [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      Array.iter
        (fun (fd, defr, _) ->
           if List.mem fd ready then
             match Unix.read fd chunk 0 (Bytes.length chunk) with
             | 0 -> failwith "server closed the connection"
             | k ->
               (match P.feed defr (Bytes.sub_string chunk 0 k) with
                | Error m -> failwith m
                | Ok payloads ->
                  let t = now () in
                  List.iter
                    (fun pl ->
                       match P.decode_response pl with
                       | Error m -> failwith ("bad response: " ^ m)
                       | Ok rs ->
                         (match Hashtbl.find_opt byid rs.P.rs_id with
                          | Some r when r.r_reply = None ->
                            r.r_done <- t;
                            decr outstanding;
                            r.r_reply <-
                              Some
                                (match rs.P.rs_body with
                                 | P.R_rewrite rr -> Ok rr
                                 | P.R_error { code; msg } -> Error (code, msg)
                                 | _ -> Error (0, "unexpected reply kind"))
                          | _ -> ()))
                    payloads)
             | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
        conns
  done;
  Array.iter (fun (fd, _, _) -> Unix.close fd) conns;
  (t0, reference () :: !ks)

(* Peak resident memory of the server and its workers, in MB: the sum of
   their VmHWM, read from /proc before the server stops.  0 if /proc does
   not say. *)
let server_peak_mb sv =
  let read path =
    try Some (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error _ -> None
  in
  let hwm_kb pid =
    match read (Printf.sprintf "/proc/%d/status" pid) with
    | None -> 0
    | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
          try Scanf.sscanf l "VmHWM: %d kB" Option.some with _ -> None)
      |> Option.value ~default:0
  in
  let workers =
    match read (Printf.sprintf "/proc/%d/task/%d/children" sv.sv_pid sv.sv_pid) with
    | None -> []
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))
  in
  ( float_of_int (List.fold_left (fun acc p -> acc + hwm_kb p) (hwm_kb sv.sv_pid) workers)
    /. 1024.0,
    List.length workers )

(* --- the workload ------------------------------------------------------------ *)

let run ~seed ~seconds ~traced : outcome =
  let rng = Util.Rng.create (0x5e7e + seed) in
  let progs = Array.of_list (Serve.Oneshot.names ()) in
  let configs = Array.of_list (Serve.Oneshot.matrix_names ()) in
  (* fresh specs: a fixed walk over the cells of registry x matrix, cycled
     [visits] times, with a fixed rewrite seed for every visit of a cell;
     the seed draws where in the cycle the cold phase starts.  So every
     seed sends the same specs, in the same cyclic order: with seed-drawn
     rewrite seeds the workers' total rewrite time moved by 20% between
     seeds, and with a seed-drawn order by 15%, the same in every run of a
     seed, although a request waits only about 0.1 ms in the server's queue
     at this rate. *)
  let cells =
    Array.of_list
      (Util.Rng.shuffle (Util.Rng.create 0x5e7e)
         (List.concat_map
            (fun p -> List.map (fun c -> (p, c)) (Array.to_list configs))
            (Array.to_list progs)))
  in
  let ncells = Array.length cells in
  let visits = max 1 (Float.to_int (Float.round (cold_rps *. cold_share *. seconds /. float_of_int ncells))) in
  let n_cold = visits * ncells in
  let rate = float_of_int n_cold /. (cold_share *. seconds) in
  let seen = Array.make ncells 0 in
  let k = ref (Util.Rng.int rng ncells) in
  let fresh () =
    let i = !k mod ncells in
    incr k;
    let p, c = cells.(i) in
    seen.(i) <- seen.(i) + 1;
    { Serve.Oneshot.sp_prog = p; sp_config = c;
      sp_seed = 1 + (Hashtbl.hash (0x5e7e, i, seen.(i)) mod 1_000_000) }
  in
  let cold_specs = List.init n_cold (fun _ -> fresh ()) in
  let cold = schedule ~first_id:1 ~rate cold_specs in
  let replays =
    List.init rounds (fun i ->
        schedule ~first_id:(((i + 1) * n_cold) + 1) ~rate:infinity cold_specs)
  in
  (* an untraced cold phase with its own fresh specs: the traced run
     compares its latency with the traced cold phase's *)
  let plain =
    if traced then
      schedule ~first_id:(((rounds + 1) * n_cold) + 1) ~rate
        (List.init n_cold (fun _ -> fresh ()))
    else [||]
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let starts = ref 0 in
  let sv =
    (* untraced: the forked server must not inherit an enabled tracer *)
    setup ~stop ~traced:false (fun () ->
        incr starts;
        let sv = start !starts in
        (try warm sv with e -> stop sv; raise e);
        sv)
  in
  let (plain_t0, plain_ks), (t_cold, cold_ks), rates, (peak_mb, nworkers) =
    Fun.protect
      ~finally:(fun () -> stop sv; try Sys.rmdir dir with Sys_error _ -> ())
      (fun () ->
        let plain_r = if traced then drive ~sample:true sv plain else (0.0, [ (0.0, 1.0) ]) in
        (* a phase drives the server inside a benchmark span; traced, the
           tracer is on for the phase only, so that no server forked in
           between inherits it *)
        let phase ?sample name op reqs =
          if traced then trace_on ();
          let r = layer_call name ~op (fun () -> drive ?sample sv reqs) in
          if traced then (harvest (); trace_off ());
          r
        in
        let cold_r = phase ~sample:true "serve.cold" "cold" cold in
        (* between the warm rounds, while the server is idle, another
           server is started, warmed and stopped: the set-up samples *)
        let rates =
          List.mapi
            (fun i round ->
               let t0, ks = phase "serve.warm" (string_of_int i) round in
               let t1 = Array.fold_left (fun acc r -> Float.max acc r.r_done) t0 round in
               !setup_again ();
               ratio (float_of_int n_cold) (t1 -. t0) *. median (List.map snd ks)
               /. reference_s)
            replays
        in
        (plain_r, cold_r, rates, server_peak_mb sv))
  in
  (* A cold-phase latency is scaled by the median reference time within a
     second of the request's due time: the host's speed moves within a
     phase, and the requests of a slow stretch are scaled by that stretch's
     reference times. *)
  let scale ks t0 r =
    let t = t0 +. r.r_due in
    let near = List.filter (fun (tk, _) -> Float.abs (tk -. t) <= 1.0) ks in
    reference_s /. median (List.map snd (if near = [] then ks else near))
  in
  let scaled_ms ks t0 r = latency_ms t0 r *. scale ks t0 r in
  let lat_ms = Array.to_list (Array.map (scaled_ms cold_ks t_cold) cold) in
  let raw_ms = Array.to_list (Array.map (latency_ms t_cold) cold)
  in
  let late = Array.to_list (Array.map (late_ms t_cold) cold) in
  (* the tracing overhead compares the median latencies of the untraced and
     the traced cold phases *)
  if traced then begin
    plain_s := median (Array.to_list (Array.map (scaled_ms plain_ks plain_t0) plain));
    traced_s := median lat_ms
  end;
  (* correctness, after the timed phases: every reply digest against the
     one-shot rewrite of its spec *)
  let chk = checks () in
  if peak_mb = 0.0 || nworkers <> workers then
    fail chk
      (Printf.sprintf "server memory: %d of %d workers found, %.1f MB" nworkers workers
         peak_mb);
  let one_shot = Serve.Oneshot.warm () in
  let expect = Hashtbl.create 256 in
  let native_bytes = Hashtbl.create 16 in
  let sizes = ref [] in
  let counts = Hashtbl.create 8 in
  let count key = Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0) in
  let check ~phase r =
    attempt chk;
    let sp = r.r_spec in
    let op =
      Printf.sprintf "%d %s/%s/%d" r.r_id sp.Serve.Oneshot.sp_prog
        sp.Serve.Oneshot.sp_config sp.Serve.Oneshot.sp_seed
    in
    match r.r_reply with
    | None -> fail chk (op ^ ": no reply")
    | Some (Error (code, msg)) ->
      count (string_of_int code);
      fail chk (Printf.sprintf "%s: error %d %s" op code msg)
    | Some (Ok rr) ->
      count
        (phase ^ match rr.P.rr_cache with P.Hit -> "hit" | P.Miss -> "miss" | P.Coalesced -> "coalesced");
      let want =
        match Hashtbl.find_opt expect sp with
        | Some a -> a
        | None ->
          let a =
            Result.map
              (fun a -> (a.Serve.Oneshot.a_image_digest, String.length a.Serve.Oneshot.a_image))
              (Serve.Oneshot.rewrite one_shot sp)
          in
          Hashtbl.replace expect sp a;
          a
      in
      match want with
      | Error m -> fail chk (op ^ ": one-shot rewrite failed: " ^ m)
      | Ok (digest, bytes) ->
        if rr.P.rr_image_digest <> digest then
          fail chk (op ^ ": served digest differs from the one-shot rewrite");
        if phase = "cold " then begin
          let nb =
            match Hashtbl.find_opt native_bytes sp.Serve.Oneshot.sp_prog with
            | Some b -> b
            | None ->
              let e = Option.get (Serve.Oneshot.find sp.Serve.Oneshot.sp_prog) in
              let b = float_of_int (String.length (Image.serialize (e.Serve.Oneshot.e_build ()))) in
              Hashtbl.replace native_bytes sp.Serve.Oneshot.sp_prog b;
              b
          in
          sizes := (float_of_int bytes /. nb) :: !sizes
        end
  in
  Array.iter (check ~phase:"plain ") plain;
  Array.iter (check ~phase:"cold ") cold;
  List.iter (Array.iter (check ~phase:"warm ")) replays;
  let got key = float_of_int (Option.value (Hashtbl.find_opt counts key) ~default:0) in
  let misses =
    Array.to_list cold
    |> List.filter_map (fun r ->
        match r.r_reply with
        | Some (Ok rr) when rr.P.rr_cache = P.Miss -> Some (r, rr)
        | _ -> None)
  in
  let mean xs = ratio (sumf Fun.id xs) (float_of_int (List.length xs)) in
  let n = List.length lat_ms in
  (* A cell's latency is the median over its visits, as an operation's
     time in the other workloads is the median over the repetitions: a
     stall that delays one visit does not decide it, a slow stretch as long
     as the cycle does.  p50 and p90 are taken over the cells. *)
  let cell_ms =
    let by = Hashtbl.create ncells in
    Array.iter2
      (fun r ms ->
         let key = (r.r_spec.Serve.Oneshot.sp_prog, r.r_spec.Serve.Oneshot.sp_config) in
         Hashtbl.replace by key (ms :: Option.value (Hashtbl.find_opt by key) ~default:[]))
      cold (Array.of_list lat_ms);
    Hashtbl.fold (fun _ ms acc -> median ms :: acc) by []
  in
  { attempted = chk.c_attempted;
    failed = chk.c_failed;
    failures = List.rev chk.c_msgs;
    e2e =
      [ setup_metric ();
        ("throughput_per_s", median rates, rounds * n_cold);
        ("latency_p50_ms", median cell_ms, n);
        ("latency_p90_ms", quantile 0.9 cell_ms, n);
        ("peak_heap_mb", peak_mb, 1 + nworkers);
        ("image_size_x", geomean !sizes, List.length !sizes) ];
    layers =
      (if not traced then []
       else
         [ ("serve.queue_ms", mean (List.map (fun (_, rr) -> rr.P.rr_queue_ms) misses));
           ("serve.worker_ms", mean (List.map (fun (_, rr) -> rr.P.rr_rewrite_ms) misses));
           ("serve.overhead_ms",
            mean
              (List.map
                 (fun (r, rr) ->
                    (1000.0 *. (r.r_done -. r.r_sent)) -. rr.P.rr_queue_ms -. rr.P.rr_rewrite_ms)
                 misses));
           ("serve.hit_ratio", ratio (got "warm hit") (float_of_int (rounds * n_cold)));
           ("serve.coalesced",
            got "plain coalesced" +. got "cold coalesced" +. got "warm coalesced");
           ("serve.shed", got "429");
           ("serve.expired", got "504");
           ("serve.gen_late_ms", quantile 0.9 late) ]);
    notes =
      [ Printf.sprintf
          "serve: cold %.0f/s x %d requests (%.0f misses), generator late p90 %.2f ms \
           max %.2f ms; %d warm rounds (%.0f hits) drained at %s/s; server + %d workers \
           peak RSS %.1f MB"
          rate n (got "cold miss") (quantile 0.9 late)
          (List.fold_left Float.max 0.0 late) rounds (got "warm hit")
          (String.concat ", " (List.map (Printf.sprintf "%.0f") rates))
          nworkers peak_mb;
        Printf.sprintf
          "serve: cold phase unscaled p50 %.2f ms p90 %.2f ms, reference median %.3f ms over %d runs"
          (median raw_ms) (quantile 0.9 raw_ms)
          (1000.0 *. median (List.map snd cold_ks)) (List.length cold_ks) ] }
