(* Clock, order statistics, growth fits and process counters shared by
   the workloads. *)

let now = Unix.gettimeofday

(* Wall time spent in traced side measurements is taken off the clock
   the workloads run on, so a traced run keeps the untraced schedule
   and its request latencies exclude the side work. *)
let paused = ref 0.0
let clock () = now () -. !paused

let off_clock f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> paused := !paused +. (now () -. t0)) f

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in [0, 1]. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = pct (sorted xs) 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Least-squares slope of log y against log x: the growth exponent of a
   cost measured at a few sizes (1 linear, 2 quadratic). *)
let growth_exponent points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let d = (n *. sxx) -. (sx *. sx) in
  if n < 2.0 || d = 0.0 then nan else ((n *. sxy) -. (sx *. sy)) /. d

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  scan ()

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let rec dir_bytes path =
  match Sys.is_directory path with
  | exception Sys_error _ -> 0
  | true ->
      Array.fold_left
        (fun a e -> a + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size

(* Bytes of the newest snapshot (JSON and plane sidecar) of every store
   directory under [path]: the image of the live state. *)
let rec snapshot_bytes path =
  let names = Array.to_list (Sys.readdir path) in
  let snaps =
    List.filter (fun e -> String.starts_with ~prefix:"snap-" e && Filename.check_suffix e ".json") names
  in
  let own =
    match List.rev (List.sort compare snaps) with
    | [] -> 0
    | newest :: _ ->
        dir_bytes (Filename.concat path newest)
        + dir_bytes (Filename.concat path (Filename.chop_suffix newest ".json" ^ ".csr"))
  in
  List.fold_left
    (fun a e ->
      let p = Filename.concat path e in
      if Sys.is_directory p then a + snapshot_bytes p else a)
    own names
