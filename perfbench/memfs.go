package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fault"
)

// memFS is a memory-backed fault.FS for the daemon workload's stores, so
// the numbers measure the program rather than a shared disk. Sync is free,
// as on tmpfs: there is no page cache to flush. Unlike fault.SimFS it keeps
// no durable copy, so a sync does not re-copy the file.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct{ data []byte }

func newMemFS() *memFS { return &memFS{files: map[string]*memFile{}} }

var _ fault.FS = (*memFS)(nil)

// bytes returns the memory the files hold, counting slice capacity.
func (fs *memFS) bytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		n += int64(cap(f.data))
	}
	return n
}

func (fs *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (fs *memFS) OpenFile(name string, flag int, _ os.FileMode) (fault.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = filepath.Clean(name)
	f, ok := fs.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case !ok:
		f = &memFile{}
		fs.files[name] = f
	case flag&os.O_TRUNC != 0:
		f.data = nil
	}
	return &memHandle{fs: fs, f: f, appendOnly: flag&os.O_APPEND != 0}, nil
}

func (fs *memFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (fs *memFS) WriteFile(name string, data []byte, _ os.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[filepath.Clean(name)] = &memFile{data: append([]byte(nil), data...)}
	return nil
}

func (fs *memFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	f, ok := fs.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(fs.files, oldpath)
	fs.files[newpath] = f
	return nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

func (fs *memFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = filepath.Clean(dir)
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// memHandle is an open file. Writes on an O_APPEND handle always land at
// the end of the file, as with the OS.
type memHandle struct {
	fs         *memFS
	f          *memFile
	off        int64
	appendOnly bool
	closed     bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if h.appendOnly {
		h.off = int64(len(h.f.data))
	}
	end := h.off + int64(len(p))
	if grow := end - int64(len(h.f.data)); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	}
	copy(h.f.data[h.off:end], p)
	h.off = end
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += h.off
	case io.SeekEnd:
		offset += int64(len(h.f.data))
	default:
		return 0, fmt.Errorf("memfs: bad whence %d", whence)
	}
	if offset < 0 {
		return 0, fmt.Errorf("memfs: negative seek offset")
	}
	h.off = offset
	return offset, nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("memfs: bad truncate size %d", size)
	}
	if size <= int64(len(h.f.data)) {
		h.f.data = h.f.data[:size]
	} else {
		h.f.data = append(h.f.data, make([]byte, size-int64(len(h.f.data)))...)
	}
	return nil
}

func (h *memHandle) Sync() error { return nil }

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}
