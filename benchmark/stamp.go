package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// stamp describes the code and the host a run measured, so a slower
// host is not mistaken for a regression.
func stamp(root string) []string {
	rev, dirty := vcsStamp()
	if rev == "" {
		rev, dirty = gitStamp(root)
	}
	return []string{
		fmt.Sprintf("code revision %s dirty %s go %s", rev, dirty, runtime.Version()),
		fmt.Sprintf("host nproc %d gomaxprocs %d cpu %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel()),
	}
}

// vcsStamp reads the revision the Go toolchain embedded at build time.
func vcsStamp() (rev, dirty string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	dirty = "unknown"
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value
		}
	}
	return rev, dirty
}

// gitStamp reads HEAD from the repository's .git directory when the
// binary carries no stamp. The dirty flag cannot be known without an
// index walk, so it reads "unknown".
func gitStamp(root string) (rev, dirty string) {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown", "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref, "unknown"
	}
	if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(b)), "unknown"
	}
	if b, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(l, " "); ok && r == ref {
				return h, "unknown"
			}
		}
	}
	return "unknown", "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// medium names the file system a store sits on, from statfs.
func medium(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4 (block device)"
	case 0x58465342:
		return "xfs (block device)"
	case 0x9123683E:
		return "btrfs (block device)"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type 0x%x", st.Type)
}
