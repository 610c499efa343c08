package xmlstore

// setFillHook makes every node-cache fill call hook after it decodes its
// page and before it publishes the image.  Set it before the store is
// shared between goroutines.
func (s *Store) setFillHook(hook func()) { s.nodes.fillHook = hook }
