package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layerOf maps a profiled function to the layer its package belongs to,
// or "" for code outside every reported layer.
func layerOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime" // assembly stubs such as gcWriteBarrier
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name types from other packages
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	const internal = "github.com/eurosys23/ice/internal/"
	if strings.HasPrefix(pkg, internal) {
		switch name := strings.SplitN(strings.TrimPrefix(pkg, internal), "/", 2)[0]; name {
		case "core", "predict":
			return "policy" // ICE's own mechanism and its predictor
		case "tenant":
			return "service"
		default:
			return name
		}
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal"),
		strings.HasPrefix(pkg, "internal/runtime"), pkg == "internal/abi",
		pkg == "internal/bytealg", pkg == "sync/atomic", pkg == "internal/sync":
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), strings.HasPrefix(pkg, "vendor/golang.org/x/net/"),
		pkg == "internal/poll":
		return "net"
	case pkg == "encoding/json":
		return "json"
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	}
	return ""
}

// foldProfile runs `go tool pprof -top` over a CPU profile and returns
// each layer's share of all sampled CPU time.
func foldProfile(goTool, binary, profile string) (map[string]float64, error) {
	cmd := exec.Command(goTool, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", binary, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// flat flat% sum% cum cum% function
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += ms
		flat[layerOf(strings.Join(f[5:], " "))] += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	shares := map[string]float64{}
	for _, l := range profileLayers {
		shares[l+".cpu_share"] = flat[l] / total
	}
	return shares, nil
}

// profileLayers are the layers whose CPU share the traced run reports.
var profileLayers = []string{
	"sched", "sim", "proc", "android", "policy", "mm", "zram", "storage",
	"runtime", "service", "net", "json", "crypto",
}
